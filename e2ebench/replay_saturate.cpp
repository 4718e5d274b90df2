// replay_saturate: closed-loop batch replay of recorded drives, the way
// `br_ingest replay` runs. Every stream's bytes sit in a MemoryByteSource
// and the front-end reads them as fast as it can, telemetry off; passes
// alternate between the full thread count and one thread. A minority of
// streams are damaged by WireFaultInjector so decoder resync and
// quarantine run too.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frontend.hpp"
#include "ingest/wire_fault.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"

namespace e2e {

namespace {

constexpr std::size_t kStreams = 32;
constexpr std::size_t kRecordings = 8;
/// 1000 frames: four autosnapshot cycles per session.
constexpr double kRecordingS = 40.0;
/// One stream in kFaultEvery passes through the fault injector.
constexpr std::size_t kFaultEvery = 4;
constexpr std::size_t kCapacityPairs = 3;

struct Replay {
    std::vector<Recording> recs;
    std::vector<std::vector<std::uint8_t>> faulted;
    std::vector<Reference> faulted_ref;
    std::vector<WireStream> streams;
    std::uint64_t inputs = 0;
};

std::unique_ptr<Replay> set_up(const Options& opt) {
    auto rp = std::make_unique<Replay>();
    Rng rng(opt.seed);
    rp->recs = make_recordings(kRecordings, kRecordingS, rng);

    ingest::WireFaultConfig faults;
    faults.bitflip_rate = 0.002;
    faults.truncate_rate = 0.001;
    faults.drop_rate = 0.001;
    faults.garbage_rate = 0.002;
    // Streams point into these vectors: size them once.
    rp->faulted.reserve(kStreams / kFaultEvery);
    rp->faulted_ref.reserve(kStreams / kFaultEvery);
    for (std::size_t s = 0; s < kStreams; ++s) {
        const Recording& r = rp->recs[s % kRecordings];
        if (s % kFaultEvery != kFaultEvery - 1) {
            rp->streams.push_back(
                {&r.wire, &r.ref, r.frames.size(), r.ref.frames});
            continue;
        }
        // The header and hello stay intact so every stream opens; the
        // frames behind them take the damage.
        ingest::WireFaultInjector inj(faults, rng.engine()());
        std::vector<std::uint8_t> bytes(r.wire.begin(),
                                        r.wire.begin() + r.hello_end);
        const std::vector<std::uint8_t> tail = inj.corrupt(
            {r.wire.data() + r.hello_end, r.wire.size() - r.hello_end});
        bytes.insert(bytes.end(), tail.begin(), tail.end());
        rp->faulted.push_back(std::move(bytes));
        rp->faulted_ref.push_back(
            reference_over(r.radar, decode_all(rp->faulted.back())));
        rp->streams.push_back({&rp->faulted.back(), &rp->faulted_ref.back(),
                               r.frames.size(),
                               rp->faulted_ref.back().frames});
    }
    rp->inputs = fingerprint(rp->recs, {});
    for (const auto& bytes : rp->faulted)
        rp->inputs = fingerprint(bytes.data(), bytes.size(), rp->inputs);
    return rp;
}

}  // namespace

IngestPass ingest_pass(const std::vector<WireStream>& streams,
                       const Options& opt, std::size_t threads,
                       bool telemetry, Tracer& tracer) {
    IngestPass out;
    obs::MetricsRegistry metrics;
    obs::telemetry::SpanCollector spans;
    fleet::FleetConfig fc;
    fc.n_shards = shards_for(threads);
    fc.record_results = false;
    fc.collect_metrics = telemetry;
    fc.span_collector = telemetry ? &spans : nullptr;
    fleet::FleetEngine engine(fc, opt.pool);

    ingest::IngestConfig ic;
    ic.admission.capacity = static_cast<double>(streams.size());
    // A replay has no deadline to shed for: the block policy's
    // backpressure paces it, and a budget no tick reaches keeps the
    // shed ladder parked (as the ingest capacity bench does).
    ic.governor.budget_frames_per_tick = 1u << 20;
    if (!telemetry) {
        ic.telemetry.track_slo = false;
        ic.telemetry.span_stride = 0;
    }
    ingest::IngestFrontend fe(ic, engine, telemetry ? &metrics : nullptr,
                              nullptr, telemetry ? &spans : nullptr);

    std::vector<ingest::StreamId> ids;
    for (const WireStream& ws : streams) {
        const ingest::Admission adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(*ws.bytes));
        if (!adm.admitted()) {
            out.errors.push_back("replay stream refused admission");
            return out;
        }
        ids.push_back(adm.id);
    }

    LayerSample& ls = out.layers;
    const auto t0 = Clock::now();
    const std::uint64_t cpu0 = process_cpu_ns();
    for (std::size_t tick = 0; !fe.drained(); ++tick) {
        if (tick > 1'000'000) {
            out.errors.push_back("replay did not drain");
            return out;
        }
        const auto a = Clock::now();
        ingest::PumpReport rep;
        {
            Tracer::Scope span(tracer, Span::kPump);
            rep = fe.pump();
        }
        const double ms = seconds_between(a, Clock::now()) * 1e3;
        if (rep.frames_processed > 0)
            out.pumps.emplace_back(ms, rep.frames_processed);
        ++ls.pumps;
        ls.engine_wall_ns += rep.pump_ns;
        ls.backlog_max = std::max<std::uint64_t>(ls.backlog_max, rep.backlog);
        if (tracer.on()) ls.note_pump_stats(engine.last_pump_stats());
    }
    out.cpu_ns = process_cpu_ns() - cpu0;
    out.wall_s = seconds_between(t0, Clock::now());

    ls.resident_max = engine.resident_count();
    const std::size_t interval = engine.config().snapshot_interval_frames;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const WireStream& ws = streams[i];
        const ingest::StreamId id = ids[i];
        const ingest::DecodeStats dec = fe.decode_stats(id);
        const ingest::StreamStats ss = fe.stream_stats(id);
        const std::optional<fleet::SessionId> session = fe.session_of(id);
        const std::vector<core::DetectedBlink> blinks =
            session ? engine.blinks(*session)
                    : std::vector<core::DetectedBlink>{};
        const fleet::SessionStats fin = fe.close_stream(id);
        LossLedger loss;
        loss.sent = ws.sent;
        loss.results = fin.frames_processed;
        loss.queue_drops = ss.frames_dropped;
        loss.quarantined = ws.sent - std::min(dec.frames_decoded, ws.sent);
        loss.cold_drops = fin.frames_dropped;
        check_stream("replay stream " + std::to_string(i), loss,
                     dec.frames_decoded, ws.expect_decoded,
                     ss.queued + (ss.holding ? 1 : 0), *ws.ref,
                     fin.frames_processed, blinks, out.loss, out.errors);
        ls.decoded += dec.frames_decoded;
        ls.quarantined_bytes += dec.quarantined_bytes;
        ls.resyncs += dec.resyncs;
        ls.queue_drops += ss.frames_dropped;
        ls.autosnapshots += fin.frames_processed / interval;
    }
    out.frames = out.loss.results;
    ls.frames = out.frames;
    ls.cpu_ns = out.cpu_ns;
    ls.shed_transitions = fe.shed_events().size();
    ls.take_spans(tracer);
    const Tracer::Totals& pumps = tracer.totals(Span::kPump);
    ls.pump_wall_ns = pumps.wall_ns;
    // The front-end's part of the pump runs on this thread alone, so its
    // wall time is its CPU time; the rest of the pump's CPU is the engine's.
    ls.engine_cpu_ns = static_cast<double>(pumps.cpu_ns) -
                       (static_cast<double>(pumps.wall_ns) -
                        static_cast<double>(ls.engine_wall_ns));
    return out;
}

Capacity ingest_capacity(const std::vector<WireStream>& streams,
                         const Options& opt, bool telemetry) {
    Capacity cap;
    std::vector<double> full;
    std::vector<double> single;
    for (std::size_t pair = 0; pair < kCapacityPairs; ++pair)
        for (const std::size_t threads : {opt.threads, std::size_t{1}}) {
            Tracer off(false);
            const IngestPass p =
                ingest_pass(streams, opt, threads, telemetry, off);
            cap.errors.insert(cap.errors.end(), p.errors.begin(),
                              p.errors.end());
            (threads == 1 ? single : full)
                .push_back(static_cast<double>(p.frames) / p.wall_s);
        }
    cap.fps_full = median(full);
    cap.fps_single = median(single);
    cap.efficiency =
        cap.fps_full / (static_cast<double>(opt.threads) * cap.fps_single);
    return cap;
}

/// What the passes at one thread count measured.
struct PassSeries {
    std::vector<double> fps;
    std::vector<double> cpu_ns_per_frame;
    std::vector<double> latency_ms;
    std::uint64_t sent = 0;
    LossLedger loss;

    void add(const IngestPass& p) {
        fps.push_back(static_cast<double>(p.frames) / p.wall_s);
        cpu_ns_per_frame.push_back(static_cast<double>(p.cpu_ns) /
                                   static_cast<double>(p.frames));
        // Closed loop: a frame's bytes are read and its result is
        // visible within one pump, so each frame's latency is the wall
        // time of the pump that carried it.
        for (const auto& [ms, n] : p.pumps)
            latency_ms.insert(latency_ms.end(), n, ms);
        sent += p.loss.sent;
        loss = p.loss;
    }
};

RunResult run_replay_saturate(const Options& opt) {
    RunResult res;
    std::vector<double> setup_s;
    std::unique_ptr<Replay> rp;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rp.reset();
        const auto a = Clock::now();
        rp = set_up(opt);
        setup_s.push_back(seconds_between(a, Clock::now()));
    }
    res.inputs = rp->inputs;

    // Alternate full-thread and 1-thread passes until the run's seconds
    // are spent, at least two of each.
    PassSeries full;
    PassSeries single;
    const auto start = Clock::now();
    while (single.fps.size() < 2 ||
           seconds_between(start, Clock::now()) < opt.seconds) {
        for (const std::size_t threads : {opt.threads, std::size_t{1}}) {
            Tracer off(false);
            const IngestPass p =
                ingest_pass(rp->streams, opt, threads, false, off);
            res.errors.insert(res.errors.end(), p.errors.begin(),
                              p.errors.end());
            if (!p.errors.empty()) break;
            (threads == 1 ? single : full).add(p);
        }
        if (!res.errors.empty()) {
            res.correct = false;
            return res;
        }
    }

    Capacity cap;
    cap.fps_full = median(full.fps);
    cap.fps_single = median(single.fps);
    cap.efficiency =
        cap.fps_full / (static_cast<double>(opt.threads) * cap.fps_single);
    if (!opt.trace) {
        // The gate reads the 1-thread passes: on a shared host the cores
        // a multi-threaded pass gets swing from run to run, so full-thread
        // figures are recorded per layer (pool.*) instead. Closed loop,
        // latency follows batch size, not a clock: p99 over the whole run.
        add_e2e_metrics(res, setup_s, std::move(single.latency_ms),
                        single.sent, cap.fps_single,
                        median(single.cpu_ns_per_frame) / 1e3, single.loss,
                        1);
        char line[160];
        std::snprintf(line, sizeof line,
                      "capacity: %.0f fps at full threads, %.0f fps at 1 "
                      "thread, parallel_efficiency %.3f",
                      cap.fps_full, cap.fps_single, cap.efficiency);
        res.report.emplace_back(line);
    } else {
        Tracer tracer(true);
        const IngestPass p =
            ingest_pass(rp->streams, opt, opt.threads, false, tracer);
        res.errors.insert(res.errors.end(), p.errors.begin(), p.errors.end());
        layer_metrics(rp->recs, p.layers, median(full.cpu_ns_per_frame), cap,
                      *opt.pool, res);
        res.attempted = p.loss.sent;
        res.failed =
            p.loss.sent - p.loss.results - p.loss.expected_quarantined;
    }
    res.correct = res.errors.empty();
    return res;
}

}  // namespace e2e
