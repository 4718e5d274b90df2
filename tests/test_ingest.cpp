// Ingest front-end coverage: "BRWF" wire round-trip and corruption
// tolerance (fuzz sweeps that must never throw past the stream
// boundary), per-stream backpressure determinism across shard/thread
// sweeps, admission control, stall watchdogs, and the overload drill —
// producers at 4x the sustainable rate must engage the shed ladder in
// its documented order without losing a frame silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frame_queue.hpp"
#include "ingest/frontend.hpp"
#include "ingest/wire_fault.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

namespace blinkradar {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kStreamHeaderBytes = 8;
constexpr std::size_t kHelloRecordBytes = 20 + 88 + 4;

std::size_t frame_record_bytes(std::size_t n_bins) {
    return 20 + (12 + 16 * n_bins) + 4;
}

sim::ScenarioConfig ingest_scenario(std::uint64_t seed, Seconds duration) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

std::vector<sim::SimulatedSession> make_sessions(std::size_t n,
                                                 Seconds duration) {
    std::vector<sim::SimulatedSession> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(
            sim::simulate_session(ingest_scenario(500 + i, duration)));
    return out;
}

std::vector<std::uint8_t> encode(const sim::SimulatedSession& sim,
                                 std::uint64_t tag) {
    ingest::WireHello hello;
    hello.radar = sim.radar;
    hello.stream_tag = tag;
    return ingest::WireEncoder::encode_session(hello, sim.frames);
}

void expect_frames_bit_exact(const radar::RadarFrame& a,
                             const radar::RadarFrame& b) {
    EXPECT_EQ(a.timestamp_s, b.timestamp_s);
    ASSERT_EQ(a.bins.size(), b.bins.size());
    for (std::size_t i = 0; i < a.bins.size(); ++i) {
        EXPECT_EQ(a.bins[i].real(), b.bins[i].real());
        EXPECT_EQ(a.bins[i].imag(), b.bins[i].imag());
    }
}

/// Decode everything a byte vector holds, pushing in `chunk`-sized
/// slices. Returns the decoded frames.
radar::FrameSeries decode_all(ingest::WireDecoder& dec,
                              const std::vector<std::uint8_t>& bytes,
                              std::size_t chunk = 4096) {
    radar::FrameSeries frames;
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
        const std::size_t n = std::min(chunk, bytes.size() - off);
        dec.push({bytes.data() + off, n});
        while (auto rec = dec.next())
            if (rec->type == ingest::RecordType::kFrame)
                frames.push_back(std::move(rec->frame));
    }
    return frames;
}

// ------------------------------------------------------------ wire format

TEST(IngestWire, RoundTripIsBitExactAtAnyChunkSize) {
    const auto sims = make_sessions(1, 2.0);
    const auto bytes = encode(sims[0], 77);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}}) {
        ingest::WireDecoder dec;
        const radar::FrameSeries frames = decode_all(dec, bytes, chunk);
        ASSERT_EQ(frames.size(), sims[0].frames.size()) << "chunk=" << chunk;
        for (std::size_t i = 0; i < frames.size(); ++i)
            expect_frames_bit_exact(frames[i], sims[0].frames[i]);

        ASSERT_TRUE(dec.has_hello());
        EXPECT_EQ(dec.hello().stream_tag, 77u);
        EXPECT_EQ(dec.hello().radar.carrier_hz, sims[0].radar.carrier_hz);
        EXPECT_EQ(dec.hello().radar.frame_period_s,
                  sims[0].radar.frame_period_s);
        EXPECT_TRUE(dec.saw_bye());
        EXPECT_EQ(dec.stats().total_errors(), 0u);
        EXPECT_EQ(dec.stats().frames_decoded, frames.size());
        EXPECT_EQ(dec.stats().quarantined_bytes, 0u);
        EXPECT_EQ(dec.stats().seq_gaps, 0u);
        EXPECT_EQ(dec.stats().seq_regressions, 0u);
    }
}

TEST(IngestWire, MidFrameEofLeavesTailBufferedWithoutError) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    // Cut in the middle of the 4th frame record.
    const std::size_t cut =
        kStreamHeaderBytes + kHelloRecordBytes + 3 * rec + rec / 2;
    ASSERT_LT(cut, bytes.size());
    bytes.resize(cut);

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), 3u);
    EXPECT_FALSE(dec.saw_bye());
    EXPECT_EQ(dec.stats().total_errors(), 0u);
    EXPECT_GT(dec.buffered_bytes(), 0u);  // the amputated tail
}

TEST(IngestWire, CrcMismatchCostsOneRecordAndResyncs) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    // Flip one payload byte inside the 3rd frame record.
    bytes[kStreamHeaderBytes + kHelloRecordBytes + 2 * rec + 40] ^= 0x10;

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size() - 1);
    const ingest::DecodeStats& st = dec.stats();
    EXPECT_GE(st.errors[static_cast<std::size_t>(
                  ingest::DecodeError::kCrcMismatch)],
              1u);
    EXPECT_GE(st.resyncs, 1u);
    EXPECT_GT(st.quarantined_bytes, 0u);
    EXPECT_EQ(st.seq_gaps, 1u);  // the lost record shows up in seq space
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, GarbagePreambleIsQuarantined) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    std::vector<std::uint8_t> bytes(64 + clean.size(), 0xEE);
    std::copy(clean.begin(), clean.end(), bytes.begin() + 64);

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size());
    EXPECT_GE(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kBadStreamMagic)],
              1u);
    EXPECT_EQ(dec.stats().quarantined_bytes, 64u);
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, FrameBeforeHelloIsRejectedPerRecord) {
    const auto sims = make_sessions(1, 1.0);
    const auto full = encode(sims[0], 0);
    // Stream header + records, with the hello record spliced out.
    std::vector<std::uint8_t> bytes(full.begin(),
                                    full.begin() + kStreamHeaderBytes);
    bytes.insert(bytes.end(),
                 full.begin() + kStreamHeaderBytes + kHelloRecordBytes,
                 full.end());

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_TRUE(frames.empty());
    EXPECT_FALSE(dec.has_hello());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kFrameBeforeHello)],
              sims[0].frames.size());
}

TEST(IngestWire, DuplicateHelloIsCountedAndSkipped) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    // Replay the hello record just before the bye (a reconnecting
    // producer restarting its stream).
    const std::vector<std::uint8_t> hello_rec(
        bytes.begin() + kStreamHeaderBytes,
        bytes.begin() + kStreamHeaderBytes + kHelloRecordBytes);
    bytes.insert(bytes.end() - 32, hello_rec.begin(), hello_rec.end());

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kDuplicateHello)],
              1u);
    EXPECT_GE(dec.stats().seq_regressions, 1u);
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, OversizedRecordsAreRejectedByTheCeiling) {
    const auto sims = make_sessions(1, 1.0);
    const auto bytes = encode(sims[0], 0);
    // A ceiling below the frame payload (but >= the hello payload).
    ingest::WireDecoder dec(96);
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_TRUE(frames.empty());
    EXPECT_TRUE(dec.has_hello());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kOversizedRecord)],
              sims[0].frames.size());
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, DuplicatedAndRemovedRecordsShowInSeqAccounting) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    const std::size_t frame0 = kStreamHeaderBytes + kHelloRecordBytes;

    // Re-deliver frame 2 right after itself (duplicated transport chunk).
    auto dup = clean;
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec),
               clean.begin() + static_cast<std::ptrdiff_t>(frame0 + 2 * rec),
               clean.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec));
    ingest::WireDecoder d1;
    EXPECT_EQ(decode_all(d1, dup).size(), sims[0].frames.size() + 1);
    EXPECT_EQ(d1.stats().seq_regressions, 1u);

    // Remove frame 2 entirely (records lost in transport).
    auto gap = clean;
    gap.erase(gap.begin() + static_cast<std::ptrdiff_t>(frame0 + 2 * rec),
              gap.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec));
    ingest::WireDecoder d2;
    EXPECT_EQ(decode_all(d2, gap).size(), sims[0].frames.size() - 1);
    EXPECT_EQ(d2.stats().seq_gaps, 1u);
    EXPECT_EQ(d2.stats().total_errors(), 0u);  // clean loss, not corruption
}

// ------------------------------------------------------------- fuzz sweep

TEST(IngestFuzz, FaultInjectorSweepNeverThrowsAndAccountsEveryByte) {
    const auto sims = make_sessions(1, 2.0);
    const auto clean = encode(sims[0], 9);

    ingest::WireFaultConfig fc;
    fc.chunk_bytes = 256;
    fc.truncate_rate = 0.05;
    fc.bitflip_rate = 0.05;
    fc.duplicate_rate = 0.05;
    fc.reorder_rate = 0.05;
    fc.drop_rate = 0.03;
    fc.garbage_rate = 0.05;

    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ingest::WireFaultInjector inj(fc, seed);
        const auto corrupted = inj.corrupt(clean);

        ingest::WireDecoder dec;
        const radar::FrameSeries frames = decode_all(dec, corrupted, 777);
        EXPECT_LE(frames.size(), sims[0].frames.size() + 4);  // dups allowed
        EXPECT_EQ(dec.stats().bytes_in, corrupted.size());
        EXPECT_LE(dec.stats().quarantined_bytes, dec.stats().bytes_in);
    }
}

TEST(IngestFuzz, InjectorScheduleIsSeedDeterministic) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    ingest::WireFaultConfig fc;
    fc.truncate_rate = 0.1;
    fc.bitflip_rate = 0.1;
    fc.duplicate_rate = 0.1;
    fc.reorder_rate = 0.1;
    fc.drop_rate = 0.05;
    fc.garbage_rate = 0.1;

    ingest::WireFaultInjector a(fc, 1234), b(fc, 1234), c(fc, 4321);
    const auto out_a = a.corrupt(clean);
    const auto out_b = b.corrupt(clean);
    const auto out_c = c.corrupt(clean);
    EXPECT_EQ(out_a, out_b);
    EXPECT_NE(out_a, out_c);

    // Bit-identical corruption implies bit-identical decode accounting.
    ingest::WireDecoder da, db;
    decode_all(da, out_a);
    decode_all(db, out_b);
    EXPECT_EQ(da.stats().frames_decoded, db.stats().frames_decoded);
    EXPECT_EQ(da.stats().quarantined_bytes, db.stats().quarantined_bytes);
    EXPECT_EQ(da.stats().errors, db.stats().errors);
}

TEST(IngestFuzz, RandomMutationsNeverThrowPastTheStreamBoundary) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    Rng rng(7);

    for (int iter = 0; iter < 60; ++iter) {
        auto bytes = clean;
        const int mutations = rng.uniform_int(1, 8);
        for (int m = 0; m < mutations; ++m) {
            switch (rng.uniform_int(0, 2)) {
                case 0: {  // flip a byte
                    const std::size_t i = static_cast<std::size_t>(
                        rng.uniform_int(0,
                                        static_cast<int>(bytes.size() - 1)));
                    bytes[i] = static_cast<std::uint8_t>(
                        rng.uniform_int(0, 255));
                    break;
                }
                case 1: {  // truncate a suffix
                    const std::size_t keep = static_cast<std::size_t>(
                        rng.uniform_int(0,
                                        static_cast<int>(bytes.size() - 1)));
                    bytes.resize(keep);
                    if (bytes.empty()) bytes.push_back(0);
                    break;
                }
                case 2: {  // insert garbage mid-stream
                    const std::size_t at = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(bytes.size())));
                    const int n = rng.uniform_int(1, 32);
                    std::vector<std::uint8_t> junk;
                    for (int i = 0; i < n; ++i)
                        junk.push_back(static_cast<std::uint8_t>(
                            rng.uniform_int(0, 255)));
                    bytes.insert(bytes.begin() +
                                     static_cast<std::ptrdiff_t>(at),
                                 junk.begin(), junk.end());
                    break;
                }
            }
        }
        ingest::WireDecoder dec;
        decode_all(dec, bytes, 333);  // must not throw for any mutation
        EXPECT_EQ(dec.stats().bytes_in, bytes.size());
    }

    // Pure random garbage, including pathological sizes.
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, std::size_t{19}, std::size_t{4096}}) {
        std::vector<std::uint8_t> junk;
        for (std::size_t i = 0; i < size; ++i)
            junk.push_back(
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        ingest::WireDecoder dec;
        decode_all(dec, junk, 97);
        EXPECT_EQ(dec.stats().frames_decoded, 0u);
    }
}

// ------------------------------------------------------------ frame queue

radar::RadarFrame tiny_frame(double t) {
    radar::RadarFrame f;
    f.timestamp_s = t;
    f.bins.resize(1, dsp::Complex(t, -t));
    return f;
}

TEST(IngestQueue, EveryPolicyAccountsEveryFrame) {
    for (const auto policy : {ingest::BackpressurePolicy::kBlock,
                              ingest::BackpressurePolicy::kDropOldest,
                              ingest::BackpressurePolicy::kDropNewest}) {
        ingest::BoundedFrameQueue q(4, policy);
        for (int i = 0; i < 6; ++i) q.push(tiny_frame(i), 0);

        std::vector<radar::RadarFrame> frames;
        std::vector<std::uint64_t> ages;
        q.pop_into(SIZE_MAX, 3, frames, ages);
        ASSERT_EQ(frames.size(), 4u);
        for (const std::uint64_t age : ages) EXPECT_EQ(age, 3u);

        const ingest::FrameQueueStats st = q.stats();
        switch (policy) {
            case ingest::BackpressurePolicy::kBlock:
                EXPECT_EQ(st.accepted, 4u);
                EXPECT_EQ(st.would_block, 2u);
                EXPECT_EQ(st.dropped(), 0u);
                EXPECT_EQ(frames.front().timestamp_s, 0.0);
                break;
            case ingest::BackpressurePolicy::kDropOldest:
                EXPECT_EQ(st.accepted, 6u);
                EXPECT_EQ(st.dropped_oldest, 2u);
                // The two oldest died; the window slid forward.
                EXPECT_EQ(frames.front().timestamp_s, 2.0);
                EXPECT_EQ(frames.back().timestamp_s, 5.0);
                break;
            case ingest::BackpressurePolicy::kDropNewest:
                EXPECT_EQ(st.accepted, 4u);
                EXPECT_EQ(st.dropped_newest, 2u);
                // What was queued stayed intact.
                EXPECT_EQ(frames.front().timestamp_s, 0.0);
                EXPECT_EQ(frames.back().timestamp_s, 3.0);
                break;
        }
        // No silent loss: everything pushed is accepted, refused, or
        // dropped — and the accepted ones all came back out.
        EXPECT_EQ(st.accepted + st.would_block + st.dropped_newest, 6u);
        EXPECT_EQ(st.accepted - st.dropped_oldest, frames.size());
    }
}

// ------------------------------------------------------------- byte pipe

/// Writes and checks a byte sequence whose value at stream offset k is a
/// function of k, so any lost, repeated or reordered byte shows.
struct PipeSequence {
    std::size_t written = 0;
    std::size_t consumed = 0;

    static std::uint8_t at(std::size_t k) {
        return static_cast<std::uint8_t>(k * 131 + 7);
    }
    std::size_t write(ingest::BytePipe& pipe, std::size_t n) {
        std::vector<std::uint8_t> bytes(n);
        for (std::size_t i = 0; i < n; ++i) bytes[i] = at(written + i);
        const std::size_t accepted = pipe.write(bytes);
        written += accepted;
        return accepted;
    }
    /// Reads up to `n` bytes; returns the count, or SIZE_MAX on a byte
    /// that breaks the sequence.
    std::size_t read(ingest::ByteSource& src, std::size_t n) {
        std::vector<std::uint8_t> out(n);
        const std::size_t got = src.read(out.data(), n);
        for (std::size_t i = 0; i < got; ++i)
            if (out[i] != at(consumed + i)) return SIZE_MAX;
        consumed += got;
        return got;
    }
};

TEST(IngestPipe, RingWrapsAcrossItsEnd) {
    // A 4 KB pipe's ring is its capacity from the first write on.
    ingest::BytePipe pipe(4096);
    const auto src = pipe.make_source();
    PipeSequence seq;
    ASSERT_EQ(seq.write(pipe, 3000), 3000u);
    ASSERT_EQ(seq.read(*src, 2000), 2000u);
    // The tail sits at 3000: this write wraps past the ring's end...
    ASSERT_EQ(seq.write(pipe, 2500), 2500u);
    EXPECT_EQ(pipe.buffered(), 3500u);
    // ...and so does this read, from offset 2000 through the start.
    EXPECT_EQ(seq.read(*src, 4096), 3500u);
    EXPECT_EQ(pipe.buffered(), 0u);
    // Many more laps keep the sequence intact.
    for (std::size_t lap = 0; lap < 50; ++lap) {
        const std::size_t n = 1000 + 37 * lap % 900;
        ASSERT_EQ(seq.write(pipe, n), n);
        ASSERT_EQ(seq.read(*src, 2000), n);
    }
}

TEST(IngestPipe, RingGrowsAndKeepsWrappedBytesInOrder) {
    ingest::BytePipe pipe(1u << 20);
    const auto src = pipe.make_source();
    PipeSequence seq;
    ASSERT_EQ(seq.write(pipe, 3000), 3000u);
    ASSERT_EQ(seq.read(*src, 2000), 2000u);
    ASSERT_EQ(seq.write(pipe, 2000), 2000u);  // wraps in the first ring
    // Outgrows the ring while its bytes are wrapped, then doubles again.
    ASSERT_EQ(seq.write(pipe, 5000), 5000u);
    ASSERT_EQ(seq.write(pipe, 20000), 20000u);
    EXPECT_EQ(pipe.buffered(), 28000u);
    EXPECT_EQ(seq.read(*src, 7000), 7000u);
    EXPECT_EQ(seq.read(*src, 1u << 20), 21000u);
    EXPECT_EQ(pipe.buffered(), 0u);
}

TEST(IngestPipe, ShortWriteAtCapacity) {
    ingest::BytePipe pipe(100);
    const auto src = pipe.make_source();
    PipeSequence seq;
    EXPECT_EQ(seq.write(pipe, 70), 70u);
    EXPECT_EQ(seq.write(pipe, 50), 30u);  // a prefix fits
    EXPECT_EQ(seq.write(pipe, 1), 0u);    // full
    EXPECT_EQ(pipe.buffered(), 100u);
    EXPECT_EQ(seq.read(*src, 10), 10u);
    EXPECT_EQ(seq.write(pipe, 20), 10u);  // only the room the read made
    EXPECT_EQ(pipe.buffered(), 100u);
    EXPECT_EQ(seq.read(*src, 1000), 100u);
    EXPECT_EQ(pipe.buffered(), 0u);
}

TEST(IngestPipe, EofOnlyOnceClosedAndDrained) {
    ingest::BytePipe pipe(64);
    const auto src = pipe.make_source();
    PipeSequence seq;
    EXPECT_EQ(seq.write(pipe, 10), 10u);
    EXPECT_FALSE(src->exhausted());
    pipe.close();
    EXPECT_TRUE(pipe.closed());
    EXPECT_EQ(seq.write(pipe, 5), 0u);  // nothing after close
    EXPECT_FALSE(src->exhausted());     // 10 bytes still buffered
    EXPECT_EQ(seq.read(*src, 4), 4u);
    EXPECT_FALSE(src->exhausted());
    EXPECT_EQ(seq.read(*src, 64), 6u);
    EXPECT_TRUE(src->exhausted());
    EXPECT_EQ(seq.read(*src, 64), 0u);
}

TEST(IngestPipe, PostsOnceUntilReadAndOnClose) {
    ingest::BytePipe pipe(1024);
    const auto src = pipe.make_source();
    ingest::ReadySet ready;
    ASSERT_TRUE(src->watch(ready, 42));
    std::vector<std::uint64_t> posted;
    PipeSequence seq;

    ready.take(posted);
    EXPECT_TRUE(posted.empty());
    seq.write(pipe, 10);
    seq.write(pipe, 10);  // still unread: no second post
    ready.take(posted);
    EXPECT_EQ(posted, std::vector<std::uint64_t>{42});

    EXPECT_EQ(seq.read(*src, 5), 5u);  // a read re-arms the post
    seq.write(pipe, 1);
    ready.take(posted);
    EXPECT_EQ(posted, std::vector<std::uint64_t>{42});

    EXPECT_EQ(seq.read(*src, 100), 16u);
    EXPECT_EQ(seq.write(pipe, 0), 0u);  // an empty write is no arrival
    ready.take(posted);
    EXPECT_TRUE(posted.empty());
    pipe.close();
    ready.take(posted);
    EXPECT_EQ(posted, std::vector<std::uint64_t>{42});

    // Non-notifying sources decline the hook.
    ingest::MemoryByteSource mem(std::vector<std::uint8_t>(4, 0));
    EXPECT_FALSE(mem.watch(ready, 7));
}

// ------------------------------------------------------- frontend basics

void expect_no_silent_loss(const ingest::IngestFrontend& fe,
                           ingest::StreamId id) {
    const ingest::StreamStats st = fe.stream_stats(id);
    EXPECT_EQ(st.frames_decoded, st.frames_delivered + st.frames_dropped +
                                     st.queued + (st.holding ? 1 : 0))
        << "stream " << id;
}

TEST(IngestFrontend, FileReplayMatchesDirectPipelineBitExactly) {
    const auto sims = make_sessions(1, 4.0);

    core::BlinkRadarPipeline ref_pipe(sims[0].radar);
    std::vector<core::FrameResult> ref;
    for (const radar::RadarFrame& f : sims[0].frames)
        ref.push_back(ref_pipe.process(f));

    const std::string path = "ingest_replay_test.brwf";
    {
        const auto bytes = encode(sims[0], 1);
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    ThreadPool pool(2);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine);

    const ingest::Admission adm =
        fe.open_stream(std::make_unique<ingest::FileReplaySource>(path));
    ASSERT_TRUE(adm.admitted());

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 500) fe.pump();
    ASSERT_TRUE(fe.drained());
    ASSERT_TRUE(fe.session_of(adm.id).has_value());
    const fleet::SessionId sid = *fe.session_of(adm.id);

    const auto& got = engine.results(sid);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].waveform_value, ref[i].waveform_value) << i;
        EXPECT_EQ(got[i].health, ref[i].health) << i;
    }
    expect_no_silent_loss(fe, adm.id);
    EXPECT_TRUE(fe.stream_stats(adm.id).saw_bye);

    const fleet::SessionStats final_stats = fe.close_stream(adm.id);
    EXPECT_EQ(final_stats.frames_processed, sims[0].frames.size());
    EXPECT_EQ(fe.stream_count(), 0u);
    std::remove(path.c_str());
}

TEST(IngestFrontend, AdmissionTokenBucketRefusesBurstsThenRefills) {
    ThreadPool pool(1);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestConfig cfg;
    cfg.admission.capacity = 2.0;
    cfg.admission.refill_per_tick = 0.5;
    ingest::IngestFrontend fe(cfg, engine);

    auto src = [] {
        return std::make_unique<ingest::MemoryByteSource>(
            std::vector<std::uint8_t>{});
    };
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_EQ(fe.open_stream(src()).outcome,
              ingest::AdmissionOutcome::kRefusedTokens);

    fe.pump();
    fe.pump();  // +1.0 token
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_EQ(fe.open_stream(src()).outcome,
              ingest::AdmissionOutcome::kRefusedTokens);
}

TEST(IngestFrontend, CloseStreamDrainsQueuedFrames) {
    const auto sims = make_sessions(1, 2.0);
    ThreadPool pool(1);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 1;  // almost nothing delivers
    // Park the ladder so the huge backlog can't force drops.
    cfg.governor.widen_at = 1e5;
    cfg.governor.force_drop_at = 2e5;
    cfg.governor.evict_at = 3e5;
    cfg.governor.refuse_at = 4e5;
    cfg.stream.queue_capacity = 256;
    ingest::IngestFrontend fe(cfg, engine);

    const auto adm = fe.open_stream(std::make_unique<ingest::MemoryByteSource>(
        encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());
    // A few pumps decode everything (the per-tick read budget spans only
    // part of the stream) while delivering just one frame per tick.
    std::size_t ticks = 0;
    while (fe.stream_stats(adm.id).frames_decoded < sims[0].frames.size() &&
           ticks++ < 50)
        fe.pump();

    const ingest::StreamStats st = fe.stream_stats(adm.id);
    EXPECT_EQ(st.frames_decoded, sims[0].frames.size());
    EXPECT_GT(st.queued, 0u);

    // Drain-then-release, through FleetEngine::close: every decoded
    // frame must be processed, none abandoned in the queue or inbox.
    const fleet::SessionStats final_stats = fe.close_stream(adm.id);
    EXPECT_EQ(final_stats.frames_processed, sims[0].frames.size());
}

namespace {
/// A source that stays silent until reconnect() is called, then serves
/// the wrapped bytes — the watchdog drill's stalled transport.
class StallingSource : public ingest::ByteSource {
public:
    explicit StallingSource(std::vector<std::uint8_t> bytes)
        : inner_(std::move(bytes)) {}

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        if (!connected_) return 0;
        return inner_.read(out, max);
    }
    bool exhausted() const override {
        return connected_ && inner_.exhausted();
    }
    void reconnect() override { connected_ = true; }

private:
    ingest::MemoryByteSource inner_;
    bool connected_ = false;
};
}  // namespace

TEST(IngestFrontend, WatchdogReconnectsAStalledStream) {
    const auto sims = make_sessions(1, 1.0);
    ThreadPool pool(1);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestConfig cfg;
    cfg.stream.stall_ticks = 3;
    cfg.stream.backoff_base_ticks = 2;
    ingest::IngestFrontend fe(cfg, engine);

    const auto adm = fe.open_stream(
        std::make_unique<StallingSource>(encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 100) fe.pump();
    ASSERT_TRUE(fe.drained());

    const ingest::StreamStats st = fe.stream_stats(adm.id);
    EXPECT_GE(st.reconnects, 1u);
    EXPECT_EQ(st.frames_decoded, sims[0].frames.size());
    expect_no_silent_loss(fe, adm.id);
}

/// Per-tick "stall_run/reconnects" of one stream, space-separated.
std::string stall_trace(const std::vector<ingest::StreamStats>& ticks) {
    std::string s;
    for (const ingest::StreamStats& st : ticks) {
        if (!s.empty()) s += ' ';
        s += std::to_string(st.stall_run) + '/' +
             std::to_string(st.reconnects);
    }
    return s;
}

TEST(IngestFrontend, PipeStallAccountingMatchesPerTickPolling) {
    // Four pipe streams under a short stall watchdog: one silent after
    // its hello, one written every 4th tick, one closed mid-run after a
    // silent spell, and one blocked behind its full kBlock queue while
    // lower ids take the one-frame deliver budget. The expected traces
    // were recorded from a front-end that polled every stream on every
    // tick; a front-end that skips idle streams must count the same.
    const auto sims = make_sessions(1, 2.0);
    const std::vector<std::uint8_t> bytes = encode(sims[0], 0);
    const std::size_t hello_end = kStreamHeaderBytes + kHelloRecordBytes;
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    const auto frames = [&](std::size_t first, std::size_t n) {
        return std::span<const std::uint8_t>(
            bytes.data() + hello_end + first * rec, n * rec);
    };

    // Pipes outlive the front-end (sources borrow their buffers).
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    for (std::size_t i = 0; i < 4; ++i)
        pipes.push_back(std::make_unique<ingest::BytePipe>());

    ThreadPool pool(1);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestConfig cfg;
    cfg.stream.stall_ticks = 3;
    cfg.stream.backoff_base_ticks = 2;
    cfg.stream.backoff_max_ticks = 8;
    cfg.governor.budget_frames_per_tick = 1;
    cfg.governor.widen_at = 1e5;
    cfg.governor.force_drop_at = 2e5;
    cfg.governor.evict_at = 3e5;
    cfg.governor.refuse_at = 4e5;
    ingest::IngestFrontend fe(cfg, engine);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < 4; ++i) {
        ingest::StreamConfig sc = cfg.stream;
        if (i == 3) sc.queue_capacity = 1;
        const auto adm = fe.open_stream(pipes[i]->make_source(), sc);
        ASSERT_TRUE(adm.admitted());
        ids.push_back(adm.id);
        pipes[i]->write({bytes.data(), hello_end});
    }
    pipes[2]->write(frames(0, 8));
    pipes[3]->write(frames(0, 20));

    constexpr std::size_t kTicks = 40;
    std::vector<std::vector<ingest::StreamStats>> seen(4);
    std::size_t next_frame = 0;
    for (std::size_t tick = 1; tick <= kTicks; ++tick) {
        if (tick % 4 == 0) pipes[1]->write(frames(next_frame++, 1));
        if (tick == 16) pipes[2]->close();
        fe.pump();
        for (std::size_t i = 0; i < 4; ++i)
            seen[i].push_back(fe.stream_stats(ids[i]));
    }
    const char* const expected[4] = {
        // Silent: the watchdog fires at stall 3, then on each backoff
        // expiry while the stall keeps growing.
        "0/0 1/0 2/0 3/1 4/1 5/2 6/2 7/2 8/2 9/3 10/3 11/3 12/3 13/3 "
        "14/3 15/3 16/3 17/3 18/3 19/3 20/3 21/3 22/4 23/4 24/4 25/4 "
        "26/4 27/4 28/4 29/4 30/4 31/4 32/4 33/4 34/4 35/4 36/4 37/4 "
        "38/5 39/5",
        // Written every 4th tick: each write resets the run.
        "0/0 1/0 2/0 0/0 1/0 2/0 3/1 0/1 1/1 2/1 3/2 0/2 1/2 2/2 3/3 "
        "0/3 1/3 2/3 3/4 0/4 1/4 2/4 3/5 0/5 1/5 2/5 3/6 0/6 1/6 2/6 "
        "3/7 0/7 1/7 2/7 3/8 0/8 1/8 2/8 3/9 0/9",
        // Closed at tick 16: an exhausted source stops counting, but
        // the watchdog keeps retrying at each backoff expiry.
        "0/0 1/0 2/0 3/1 4/1 5/1 6/2 7/2 8/2 9/2 10/2 11/2 12/3 13/3 "
        "14/3 14/3 14/3 14/3 14/3 14/3 14/3 14/3 14/3 14/3 14/3 14/3 "
        "14/4 14/4 14/4 14/4 14/4 14/4 14/4 14/4 14/4 14/5 14/5 14/5 "
        "14/5 14/5",
        // Blocked: a refused read is not a stall; it counts only once
        // its 20 frames have drained.
        "0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 "
        "0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 0/0 "
        "0/0 0/0 0/0 0/0 0/0 0/0 0/0 1/0 2/0 3/1",
    };
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(stall_trace(seen[i]), expected[i]) << "stream " << i;
}

/// A pipe's reader end that counts read() calls and passes the
/// readiness hook through.
class CountingPipeSource : public ingest::ByteSource {
public:
    CountingPipeSource(ingest::BytePipe& pipe, std::size_t& reads)
        : inner_(pipe.make_source()), reads_(reads) {}

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        ++reads_;
        return inner_->read(out, max);
    }
    bool exhausted() const override { return inner_->exhausted(); }
    bool watch(ingest::ReadySet& ready, std::uint64_t token) override {
        return inner_->watch(ready, token);
    }

private:
    std::unique_ptr<ingest::ByteSource> inner_;
    std::size_t& reads_;
};

TEST(IngestFrontend, IdleStreamsAreNotPolled) {
    // 64 pipe streams send their hello; then one of them gets a frame
    // per tick for 100 ticks. Only that stream may be read: a tick costs
    // the streams with bytes, not the streams that are open.
    constexpr std::size_t kStreams = 64;
    constexpr std::size_t kActive = 37;
    constexpr std::size_t kTicks = 100;
    const auto sims = make_sessions(1, 5.0);
    const std::vector<std::uint8_t> bytes = encode(sims[0], 0);
    const std::size_t hello_end = kStreamHeaderBytes + kHelloRecordBytes;
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    ASSERT_GE(sims[0].frames.size(), kTicks);

    ingest::IngestConfig cfg;
    cfg.admission.capacity = static_cast<double>(kStreams);
    // Keep the stall watchdog out of the window: a reconnected stream
    // is read on the next tick by design.
    cfg.stream.stall_ticks = 10 * kTicks;

    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    for (std::size_t i = 0; i < kStreams; ++i)
        pipes.push_back(std::make_unique<ingest::BytePipe>());
    std::vector<std::size_t> reads(kStreams, 0);
    ThreadPool pool(2);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    ingest::IngestFrontend fe(cfg, engine);
    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        const auto adm = fe.open_stream(
            std::make_unique<CountingPipeSource>(*pipes[i], reads[i]));
        ASSERT_TRUE(adm.admitted());
        ids.push_back(adm.id);
        pipes[i]->write({bytes.data(), hello_end});
    }
    fe.pump();  // every stream reads its hello
    for (std::size_t i = 0; i < kStreams; ++i) {
        EXPECT_EQ(reads[i], 1u) << "stream " << i;
        reads[i] = 0;
    }
    for (std::size_t t = 0; t < kTicks; ++t) {
        pipes[kActive]->write({bytes.data() + hello_end + t * rec, rec});
        fe.pump();
    }
    for (std::size_t i = 0; i < kStreams; ++i) {
        EXPECT_EQ(reads[i], i == kActive ? kTicks : 0u) << "stream " << i;
        // Unread ticks still count as silent ones.
        EXPECT_EQ(fe.stream_stats(ids[i]).stall_run,
                  i == kActive ? 0u : kTicks)
            << "stream " << i;
    }

    // The same bytes from MemoryByteSources, which cannot post and are
    // read on every tick, give bit-equal results.
    fleet::FleetEngine ref_engine(fleet_config, &pool);
    ingest::IngestFrontend ref_fe(cfg, ref_engine);
    std::vector<ingest::StreamId> ref_ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        const std::size_t n = hello_end + (i == kActive ? kTicks * rec : 0);
        const auto adm = ref_fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(
                std::vector<std::uint8_t>(bytes.begin(),
                                          bytes.begin() +
                                              static_cast<std::ptrdiff_t>(n))));
        ASSERT_TRUE(adm.admitted());
        ref_ids.push_back(adm.id);
    }
    for (std::size_t t = 0; t < 50 && !ref_fe.drained(); ++t) ref_fe.pump();
    ASSERT_TRUE(ref_fe.drained());
    for (std::size_t i = 0; i < kStreams; ++i) {
        const ingest::StreamStats got = fe.stream_stats(ids[i]);
        const ingest::StreamStats want = ref_fe.stream_stats(ref_ids[i]);
        EXPECT_EQ(got.frames_decoded, want.frames_decoded) << i;
        EXPECT_EQ(got.frames_delivered, want.frames_delivered) << i;
        EXPECT_EQ(got.bytes_read, want.bytes_read) << i;
        const auto& a = engine.results(*fe.session_of(ids[i]));
        const auto& b = ref_engine.results(*ref_fe.session_of(ref_ids[i]));
        ASSERT_EQ(a.size(), b.size()) << "stream " << i;
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k].waveform_value, b[k].waveform_value) << k;
            EXPECT_EQ(a[k].health, b[k].health) << k;
            EXPECT_EQ(a[k].blink.has_value(), b[k].blink.has_value()) << k;
        }
    }
    EXPECT_EQ(engine.results(*fe.session_of(ids[kActive])).size(), kTicks);
}

TEST(IngestFrontend, MetricsSurfaceDeliveryAndDecodeAccounting) {
    const auto sims = make_sessions(1, 1.0);
    ThreadPool pool(1);
    const fleet::FleetConfig fleet_config;
    fleet::FleetEngine engine(fleet_config, &pool);
    obs::MetricsRegistry reg;
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine, &reg);

    const auto adm = fe.open_stream(std::make_unique<ingest::MemoryByteSource>(
        encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());
    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 200) fe.pump();

    EXPECT_EQ(reg.counter("ingest.streams.opened").value(), 1u);
    EXPECT_EQ(reg.counter("ingest.frames.delivered").value(),
              sims[0].frames.size());
    EXPECT_EQ(reg.gauge("ingest.frames.decoded").value(),
              static_cast<double>(sims[0].frames.size()));
    EXPECT_EQ(reg.gauge("ingest.decode.errors").value(), 0.0);
    EXPECT_GT(reg.histogram("ingest.pump_ns").count(), 0u);
    EXPECT_GT(reg.gauge("ingest.bytes_in").value(), 0.0);
}

// -------------------------------------- backpressure determinism sweep

struct SweepStream {
    std::uint64_t decoded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t processed = 0;
    std::vector<core::DetectedBlink> blinks;
};

std::vector<SweepStream> run_backpressure(
    ingest::BackpressurePolicy policy, std::size_t n_shards,
    std::size_t n_threads, const std::vector<sim::SimulatedSession>& sims,
    const std::vector<std::vector<std::uint8_t>>& encoded,
    std::size_t trickle_bytes) {
    ThreadPool pool(n_threads);
    fleet::FleetConfig fcfg;
    fcfg.n_shards = n_shards;
    fleet::FleetEngine engine(fcfg, &pool);

    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 16;
    // Park the shed ladder: this test isolates the queue policies.
    cfg.governor.widen_at = 1e5;
    cfg.governor.force_drop_at = 2e5;
    cfg.governor.evict_at = 3e5;
    cfg.governor.refuse_at = 4e5;
    cfg.stream.queue_capacity = 8;
    cfg.stream.policy = policy;
    cfg.admission.capacity = 16.0;
    ingest::IngestFrontend fe(cfg, engine);

    std::vector<ingest::StreamId> ids;
    for (const auto& bytes : encoded) {
        const auto adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(bytes,
                                                       trickle_bytes));
        EXPECT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 3000) fe.pump();
    EXPECT_TRUE(fe.drained());

    std::vector<SweepStream> out;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        SweepStream row;
        row.decoded = st.frames_decoded;
        row.delivered = st.frames_delivered;
        row.dropped = st.frames_dropped;
        EXPECT_EQ(st.queued, 0u);
        EXPECT_FALSE(st.holding);
        expect_no_silent_loss(fe, ids[i]);
        const fleet::SessionId sid = *fe.session_of(ids[i]);
        row.blinks = engine.blinks(sid);
        row.processed = fe.close_stream(ids[i]).frames_processed;
        out.push_back(std::move(row));
    }
    (void)sims;
    return out;
}

TEST(IngestBackpressure, EightStreamsThreePoliciesBitIdenticalAcrossSweep) {
    const std::size_t kStreams = 8;
    const auto sims = make_sessions(kStreams, 3.0);
    std::vector<std::vector<std::uint8_t>> encoded;
    for (std::size_t i = 0; i < kStreams; ++i)
        encoded.push_back(encode(sims[i], i));
    // Trickle ~3 frames of bytes per tick so queues fill faster than the
    // 16-frame global budget drains them — real backpressure, every run.
    const std::size_t trickle =
        3 * frame_record_bytes(sims[0].radar.n_bins());

    const std::size_t shard_counts[] = {1, 3, 8};
    const std::size_t pool_sizes[] = {1, 2, 7};
    for (const auto policy : {ingest::BackpressurePolicy::kBlock,
                              ingest::BackpressurePolicy::kDropOldest,
                              ingest::BackpressurePolicy::kDropNewest}) {
        const auto baseline =
            run_backpressure(policy, 1, 1, sims, encoded, trickle);

        std::uint64_t total_dropped = 0;
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_EQ(baseline[s].decoded, sims[s].frames.size());
            EXPECT_EQ(baseline[s].delivered, baseline[s].processed);
            total_dropped += baseline[s].dropped;
        }
        if (policy == ingest::BackpressurePolicy::kBlock)
            EXPECT_EQ(total_dropped, 0u);  // block never loses frames
        else
            EXPECT_GT(total_dropped, 0u);  // pressure really happened

        for (const std::size_t n_shards : shard_counts) {
            for (const std::size_t n_threads : pool_sizes) {
                if (n_shards == 1 && n_threads == 1) continue;
                const auto got = run_backpressure(policy, n_shards,
                                                  n_threads, sims, encoded,
                                                  trickle);
                for (std::size_t s = 0; s < kStreams; ++s) {
                    EXPECT_EQ(got[s].decoded, baseline[s].decoded)
                        << "policy=" << to_string(policy)
                        << " shards=" << n_shards
                        << " threads=" << n_threads << " stream=" << s;
                    EXPECT_EQ(got[s].delivered, baseline[s].delivered);
                    EXPECT_EQ(got[s].dropped, baseline[s].dropped);
                    EXPECT_EQ(got[s].processed, baseline[s].processed);
                    ASSERT_EQ(got[s].blinks.size(),
                              baseline[s].blinks.size());
                    for (std::size_t b = 0; b < got[s].blinks.size(); ++b) {
                        EXPECT_EQ(got[s].blinks[b].peak_s,
                                  baseline[s].blinks[b].peak_s);
                        EXPECT_EQ(got[s].blinks[b].magnitude,
                                  baseline[s].blinks[b].magnitude);
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------- overload drill

/// The deterministic slice of an aggregated telemetry snapshot — what
/// the bit-identity sweep compares. Excluded: engine.sessions_stolen
/// (scheduling-dependent), per-shard roll-ups (shape follows n_shards),
/// per-laggard detail (ranked by wall-clock stage time), and pump_ns
/// (wall time). Histograms whose *values* are wall durations (the stage
/// timers) contribute their deterministic frame counts only; the SLO
/// latency and queue-age histograms — tick-derived values — must match
/// bucket for bucket.
std::string telemetry_identity_subset(const obs::MetricsRegistry& out) {
    const auto excluded = [](const std::string& name) {
        if (name == "fleet.engine.sessions_stolen") return true;
        if (name.rfind("fleet.shard", 0) == 0) return true;
        if (name == "ingest.pump_ns") return true;
        if (name.rfind("fleet.s", 0) == 0 && name.size() > 7 &&
            name[7] >= '0' && name[7] <= '9')
            return true;
        return false;
    };
    const auto deterministic_values = [](const std::string& name) {
        return name == "ingest.slo.enqueue_to_result_ns" ||
               name == "ingest.queue_age_ticks";
    };
    std::string s;
    for (const auto& [name, c] : out.counters()) {
        if (excluded(name)) continue;
        s += name;
        s += '=';
        s += std::to_string(c.value());
        s += '\n';
    }
    for (const auto& [name, g] : out.gauges()) {
        if (excluded(name)) continue;
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", g.value());
        s += name;
        s += '=';
        s += buf;
        s += '\n';
    }
    for (const auto& [name, h] : out.histograms()) {
        if (excluded(name)) continue;
        s += name;
        s += " count=";
        s += std::to_string(h.count());
        if (deterministic_values(name)) {
            s += " sum=";
            s += std::to_string(h.sum_ns());
            s += " min=";
            s += std::to_string(h.min_ns());
            s += " max=";
            s += std::to_string(h.max_ns());
            s += " buckets=";
            for (const std::uint64_t b : h.counts()) {
                s += std::to_string(b);
                s += ',';
            }
        }
        s += '\n';
    }
    return s;
}

/// Parse a span JSONL record and assert every hop is present with
/// monotonically non-decreasing timestamps:
/// decode -> enqueue -> admit -> pump -> stage[0..7] -> result.
void expect_span_monotone(const std::string& rec) {
    ASSERT_FALSE(rec.empty());
    std::vector<std::uint64_t> ts;
    for (const char* key : {"\"decode_ns\":", "\"enqueue_ns\":",
                            "\"admit_ns\":", "\"pump_ns\":"}) {
        const std::size_t pos = rec.find(key);
        ASSERT_NE(pos, std::string::npos) << key << " missing in " << rec;
        ts.push_back(
            std::strtoull(rec.c_str() + pos + std::strlen(key), nullptr, 10));
    }
    const std::size_t spos = rec.find("\"stage_ns\":[");
    ASSERT_NE(spos, std::string::npos) << rec;
    const char* p = rec.c_str() + spos + std::strlen("\"stage_ns\":[");
    for (int i = 0; i < 8; ++i) {
        char* end = nullptr;
        ts.push_back(std::strtoull(p, &end, 10));
        ASSERT_NE(p, end) << "stage " << i << " missing in " << rec;
        p = *end == ',' ? end + 1 : end;
    }
    const std::size_t rpos = rec.find("\"result_ns\":");
    ASSERT_NE(rpos, std::string::npos) << rec;
    ts.push_back(std::strtoull(
        rec.c_str() + rpos + std::strlen("\"result_ns\":"), nullptr, 10));
    EXPECT_GT(ts[0], 0u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GE(ts[i], ts[i - 1]) << "hop " << i << " in " << rec;
}

struct DrillOutcome {
    std::vector<SweepStream> streams;
    std::vector<std::array<std::uint64_t, 3>> shed;  // tick, from, to
    std::vector<std::uint64_t> pump_ns;
    bool refused_at_top = false;
    bool residency_tightened = false;
    fleet::ResidencyPolicy final_residency{};
    ingest::ShedLevel final_level = ingest::ShedLevel::kNormal;
    std::string telemetry;    ///< deterministic aggregated subset
    std::string span_record;  ///< last completed span JSONL
    std::uint64_t spans_completed = 0;
    bool slo_burned_during_shed = false;
    bool slo_burning_after = false;
    std::uint64_t slo_good = 0;
    std::uint64_t slo_bad = 0;
};

DrillOutcome run_overload(std::size_t n_shards, std::size_t n_threads,
                          const std::vector<sim::SimulatedSession>& sims,
                          const std::vector<std::vector<std::uint8_t>>&
                              encoded) {
    ThreadPool pool(n_threads);
    obs::telemetry::SpanCollector spans;
    fleet::FleetConfig fcfg;
    fcfg.n_shards = n_shards;
    fcfg.collect_metrics = true;
    fcfg.span_collector = &spans;
    fleet::FleetEngine engine(fcfg, &pool);

    obs::MetricsRegistry reg;
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 24;
    cfg.governor.engage_ticks = 2;
    cfg.governor.release_ticks = 4;
    cfg.stream.queue_capacity = 64;
    cfg.stream.policy = ingest::BackpressurePolicy::kBlock;
    cfg.admission.capacity = 16.0;
    ingest::IngestFrontend fe(cfg, engine, &reg, nullptr, &spans);

    // Producers at 4x the sustainable rate: the budget sustains 4
    // frames/stream/tick across 6 streams; each source trickles 16.
    const std::size_t trickle =
        16 * frame_record_bytes(sims[0].radar.n_bins());
    std::vector<ingest::StreamId> ids;
    for (const auto& bytes : encoded) {
        const auto adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(bytes, trickle));
        EXPECT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    DrillOutcome out;
    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 3000) {
        const ingest::PumpReport rep = fe.pump();
        out.pump_ns.push_back(rep.pump_ns);
        if (fe.shed_level() == ingest::ShedLevel::kRefuseAdmissions &&
            !out.refused_at_top) {
            const auto adm = fe.open_stream(
                std::make_unique<ingest::MemoryByteSource>(
                    std::vector<std::uint8_t>{}));
            out.refused_at_top =
                adm.outcome == ingest::AdmissionOutcome::kRefusedShed;
        }
        if (fe.shed_level() >= ingest::ShedLevel::kEvictIdle &&
            engine.residency_policy().evict_idle_after_pumps == 1)
            out.residency_tightened = true;
        if (fe.shed_level() >= ingest::ShedLevel::kWidenSampling &&
            fe.slo() != nullptr && fe.slo()->burning())
            out.slo_burned_during_shed = true;
    }
    EXPECT_TRUE(fe.drained());
    // Idle ticks after the sources dry up walk the ladder back down.
    for (int i = 0; i < 40; ++i) {
        const ingest::PumpReport rep = fe.pump();
        out.pump_ns.push_back(rep.pump_ns);
    }
    out.final_level = fe.shed_level();
    out.final_residency = engine.residency_policy();

    // Telemetry capture, before close_stream tears sessions down.
    out.slo_burning_after = fe.slo()->burning();
    out.slo_good = fe.slo()->good();
    out.slo_bad = fe.slo()->bad();
    fe.publish_telemetry();
    out.telemetry = telemetry_identity_subset(fe.aggregator().output());
    out.span_record = spans.last_record();
    out.spans_completed = spans.completed();

    for (const ingest::ShedEvent& e : fe.shed_events())
        out.shed.push_back({e.tick, static_cast<std::uint64_t>(e.from),
                            static_cast<std::uint64_t>(e.to)});

    for (const auto id : ids) {
        const ingest::StreamStats st = fe.stream_stats(id);
        SweepStream row;
        row.decoded = st.frames_decoded;
        row.delivered = st.frames_delivered;
        row.dropped = st.frames_dropped;
        EXPECT_EQ(st.queued, 0u);
        EXPECT_FALSE(st.holding);
        expect_no_silent_loss(fe, id);
        // Under a blocked stream forced to drop_oldest, every drop is a
        // drop_oldest — nothing vanished through an unrecorded path.
        const ingest::FrameQueueStats q = fe.queue_stats(id);
        EXPECT_EQ(q.dropped_newest, 0u);
        const fleet::SessionId sid = *fe.session_of(id);
        row.blinks = engine.blinks(sid);
        row.processed = fe.close_stream(id).frames_processed;
        out.streams.push_back(std::move(row));
    }
    return out;
}

TEST(IngestOverload, ShedLadderEngagesInOrderWithNoSilentLossAndBitIdentity) {
    const std::size_t kStreams = 6;
    const auto sims = make_sessions(kStreams, 8.0);
    std::vector<std::vector<std::uint8_t>> encoded;
    for (std::size_t i = 0; i < kStreams; ++i)
        encoded.push_back(encode(sims[i], i));

    const DrillOutcome base = run_overload(1, 1, sims, encoded);

    // The ladder engaged rung by rung, in its documented order.
    ASSERT_GE(base.shed.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(base.shed[i][1], i) << "transition " << i;
        EXPECT_EQ(base.shed[i][2], i + 1) << "transition " << i;
    }
    // Every step the ladder took was a single rung.
    for (const auto& e : base.shed)
        EXPECT_EQ(std::max(e[1], e[2]) - std::min(e[1], e[2]), 1u);
    // Overload responses actually happened...
    EXPECT_TRUE(base.refused_at_top);
    EXPECT_TRUE(base.residency_tightened);
    std::uint64_t total_dropped = 0;
    for (const auto& s : base.streams) total_dropped += s.dropped;
    EXPECT_GT(total_dropped, 0u);  // forced drop_oldest shed real frames
    // ...and were fully released once the overload passed.
    EXPECT_EQ(base.final_level, ingest::ShedLevel::kNormal);
    EXPECT_EQ(base.final_residency.max_resident, 0u);
    EXPECT_EQ(base.final_residency.evict_idle_after_pumps, 0u);
    // Delivered frames were all processed; drops are the only loss, and
    // they are counted per stream.
    for (const auto& s : base.streams) {
        EXPECT_EQ(s.delivered, s.processed);
        EXPECT_EQ(s.decoded, s.delivered + s.dropped);
    }

    // p99 engine-pump latency under the 40 ms fleet SLO, even at 4x.
    std::vector<std::uint64_t> lat = base.pump_ns;
    std::sort(lat.begin(), lat.end());
    const std::uint64_t p99 = lat[(lat.size() * 99) / 100];
    std::printf("engine pump p99 %.1f ms over %zu pumps\n",
                static_cast<double>(p99) / 1e6, lat.size());
    EXPECT_LT(p99, 40'000'000u);

    // SLO burn-rate: the error budget burned while the shed ladder was
    // engaged (queued frames aged past the 40 ms objective), and the
    // burn recovered once the overload released.
    EXPECT_TRUE(base.slo_burned_during_shed);
    EXPECT_FALSE(base.slo_burning_after);
    EXPECT_GT(base.slo_bad, 0u);
    EXPECT_GT(base.slo_good, 0u);

    // A sampled frame completed its span: every hop from decode to
    // result present, timestamps monotonically non-decreasing.
    EXPECT_GT(base.spans_completed, 0u);
    expect_span_monotone(base.span_record);

    // The aggregated snapshot's deterministic slice is non-trivial.
    EXPECT_NE(base.telemetry.find("fleet.stage."), std::string::npos);
    EXPECT_NE(base.telemetry.find("ingest.slo.good"), std::string::npos);

    // Bit-identical shed schedule and outputs at any shard/thread count.
    const std::size_t shard_counts[] = {3, 8};
    const std::size_t pool_sizes[] = {2, 7};
    for (const std::size_t n_shards : shard_counts) {
        for (const std::size_t n_threads : pool_sizes) {
            const DrillOutcome got =
                run_overload(n_shards, n_threads, sims, encoded);
            EXPECT_EQ(got.shed, base.shed)
                << "shards=" << n_shards << " threads=" << n_threads;
            // Aggregated fleet telemetry is bit-identical on its
            // deterministic slice at any shard/thread count, and the
            // SLO tallies replay exactly.
            EXPECT_EQ(got.telemetry, base.telemetry)
                << "shards=" << n_shards << " threads=" << n_threads;
            EXPECT_EQ(got.slo_good, base.slo_good);
            EXPECT_EQ(got.slo_bad, base.slo_bad);
            EXPECT_EQ(got.slo_burned_during_shed,
                      base.slo_burned_during_shed);
            ASSERT_EQ(got.streams.size(), base.streams.size());
            for (std::size_t s = 0; s < got.streams.size(); ++s) {
                EXPECT_EQ(got.streams[s].decoded, base.streams[s].decoded);
                EXPECT_EQ(got.streams[s].delivered,
                          base.streams[s].delivered);
                EXPECT_EQ(got.streams[s].dropped, base.streams[s].dropped);
                EXPECT_EQ(got.streams[s].processed,
                          base.streams[s].processed);
                ASSERT_EQ(got.streams[s].blinks.size(),
                          base.streams[s].blinks.size());
                for (std::size_t b = 0; b < got.streams[s].blinks.size();
                     ++b)
                    EXPECT_EQ(got.streams[s].blinks[b].peak_s,
                              base.streams[s].blinks[b].peak_s);
            }
        }
    }
}

// ------------------------------------------------------ concurrency (TSan)

TEST(IngestConcurrency, PipeProducersAgainstThePumpDrill) {
    const std::size_t kStreams = 3;
    const auto sims = make_sessions(kStreams, 3.0);

    // Pipes outlive the front-end (sources borrow their buffers).
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    for (std::size_t i = 0; i < kStreams; ++i)
        pipes.push_back(std::make_unique<ingest::BytePipe>(16 * 1024));

    ThreadPool pool(2);
    fleet::FleetConfig fcfg;
    fcfg.record_results = false;
    fleet::FleetEngine engine(fcfg, &pool);
    ingest::IngestConfig cfg;
    cfg.stream.queue_capacity = 32;
    ingest::IngestFrontend fe(cfg, engine);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        const auto adm = fe.open_stream(pipes[i]->make_source());
        ASSERT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    // Producer threads push whole sessions through the bounded pipes,
    // living with short writes (the reader applies backpressure).
    std::atomic<std::size_t> producers_done{0};
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kStreams; ++i) {
        producers.emplace_back([&, i] {
            const auto bytes = encode(sims[i], i);
            std::size_t off = 0;
            while (off < bytes.size()) {
                const std::size_t n = std::min<std::size_t>(
                    4096, bytes.size() - off);
                const std::size_t accepted = pipes[i]->write(
                    std::span<const std::uint8_t>(bytes.data() + off, n));
                off += accepted;
                if (accepted == 0) std::this_thread::yield();
            }
            pipes[i]->close();
            producers_done.fetch_add(1, std::memory_order_release);
        });
    }

    // Keep pumping until every producer has finished, even past the
    // drain budget: a producer blocked on a full pipe needs the pump to
    // keep reading, so stopping early would deadlock the joins below
    // (seen on heavily loaded CI where the pump thread outruns starved
    // producers through the whole tick budget).
    std::size_t ticks = 0;
    while ((producers_done.load(std::memory_order_acquire) < kStreams ||
            !fe.drained()) &&
           ticks++ < 200000)
        fe.pump();
    ASSERT_EQ(producers_done.load(), kStreams);
    for (auto& p : producers) p.join();
    ASSERT_TRUE(fe.drained());

    for (std::size_t i = 0; i < kStreams; ++i) {
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        EXPECT_EQ(st.frames_decoded, sims[i].frames.size());
        EXPECT_TRUE(st.saw_bye);
        EXPECT_EQ(st.frames_dropped, 0u);  // block policy never drops
        expect_no_silent_loss(fe, ids[i]);
        const fleet::SessionStats final_stats = fe.close_stream(ids[i]);
        EXPECT_EQ(final_stats.frames_processed, sims[i].frames.size());
    }
}

TEST(IngestConcurrency, ManyWritersShareOnePipeAndTheReadySet) {
    // Two writers per pipe into small pipes (short writes, wrap-around,
    // growth), all posting to one ReadySet, while one reader drains
    // whatever is posted — the front-end's arrangement without the
    // decoder. Each writer writes its own byte value, so the reader's
    // tallies prove no byte was lost or duplicated, and a lost post
    // would leave bytes unread until the deadline.
    constexpr std::size_t kPipes = 4;
    constexpr std::size_t kWritersPerPipe = 2;
    constexpr std::size_t kBytesPerWriter = 48 * 1024;
    constexpr std::size_t kReadMax = 700;

    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    std::vector<std::unique_ptr<ingest::ByteSource>> sources;
    ingest::ReadySet ready;
    for (std::size_t p = 0; p < kPipes; ++p) {
        pipes.push_back(std::make_unique<ingest::BytePipe>(1500));
        sources.push_back(pipes[p]->make_source());
        ASSERT_TRUE(sources[p]->watch(ready, p));
    }

    std::vector<std::atomic<std::size_t>> open_writers(kPipes);
    for (auto& n : open_writers) n.store(kWritersPerPipe);
    std::vector<std::thread> writers;
    for (std::size_t p = 0; p < kPipes; ++p) {
        for (std::size_t w = 0; w < kWritersPerPipe; ++w) {
            writers.emplace_back([&, p, w] {
                const std::vector<std::uint8_t> chunk(
                    600, static_cast<std::uint8_t>(w + 1));
                std::size_t left = kBytesPerWriter;
                std::size_t step = 0;
                while (left > 0) {
                    const std::size_t n = std::min<std::size_t>(
                        left, 1 + (step++ * 97) % chunk.size());
                    const std::size_t accepted =
                        pipes[p]->write({chunk.data(), n});
                    left -= accepted;
                    if (accepted == 0) std::this_thread::yield();
                }
                if (open_writers[p].fetch_sub(1) == 1) pipes[p]->close();
            });
        }
    }

    std::vector<std::array<std::size_t, kWritersPerPipe + 1>> tally(kPipes);
    for (auto& t : tally) t.fill(0);
    std::vector<std::uint64_t> posted;
    std::vector<std::uint64_t> sticky;
    std::vector<std::uint8_t> buf(kReadMax);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool all_done = false;
    while (!all_done && std::chrono::steady_clock::now() < deadline) {
        ready.take(posted);
        posted.insert(posted.end(), sticky.begin(), sticky.end());
        sticky.clear();
        std::sort(posted.begin(), posted.end());
        posted.erase(std::unique(posted.begin(), posted.end()),
                     posted.end());
        for (const std::uint64_t p : posted) {
            const std::size_t got = sources[p]->read(buf.data(), kReadMax);
            for (std::size_t i = 0; i < got; ++i) ++tally[p][buf[i]];
            if (got == kReadMax) sticky.push_back(p);  // may hold more
        }
        if (posted.empty()) std::this_thread::yield();
        all_done = true;
        for (const auto& src : sources) all_done &= src->exhausted();
    }
    for (auto& t : writers) t.join();
    ASSERT_TRUE(all_done) << "bytes left unread: a readiness post was lost";
    for (std::size_t p = 0; p < kPipes; ++p) {
        EXPECT_EQ(tally[p][0], 0u) << "pipe " << p;
        for (std::size_t w = 1; w <= kWritersPerPipe; ++w)
            EXPECT_EQ(tally[p][w], kBytesPerWriter)
                << "pipe " << p << " writer " << w;
    }
}

}  // namespace
}  // namespace blinkradar
