// The isolation pass and the ledger. Each inner layer's public API is
// driven alone on the workload's own recordings, single-threaded, which
// gives a per-call cost; multiplied by the call counts the traced run
// saw, those costs split the run's CPU time into layers. Whatever the
// layers do not explain is printed as the unattributed line.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "state/snapshot.hpp"

namespace e2e {

namespace {

/// Checksums land here so the timed loops cannot be optimised away.
volatile std::uint32_t g_sink = 0;

/// Smallest per-call cost over `reps` timed repetitions of `fn`, in ns.
template <typename F>
double best_ns(int reps, F&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto a = Clock::now();
        fn();
        const auto b = Clock::now();
        best = std::min(best, seconds_between(a, b) * 1e9);
    }
    return best;
}

/// Median per-call cost over `reps` repetitions, in ns.
template <typename F>
double median_ns(int reps, F&& fn) {
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const auto a = Clock::now();
        fn();
        const auto b = Clock::now();
        v.push_back(seconds_between(a, b) * 1e9);
    }
    return median(std::move(v));
}

struct Isolation {
    double decode_ns_per_frame = 0.0;
    double decode_mb_per_s = 0.0;
    double crc_ns_per_record = 0.0;
    double crc_ns_per_snapshot = 0.0;
    double save_ns = 0.0;
    double restore_ns = 0.0;
    double snapshot_bytes = 0.0;
    double feed_ns_per_frame = 0.0;
    double evict_ns = 0.0;
    double process_ns_per_frame = 0.0;
    double restarts = 0.0;
    double reselections = 0.0;
};

Isolation isolate(const std::vector<Recording>& recs, ThreadPool& pool) {
    Isolation iso;

    // wire: WireDecoder::push/next over every recording, whole buffer.
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    double decode_ns = 0.0;
    for (const Recording& r : recs) {
        std::uint64_t n = 0;
        decode_ns += best_ns(3, [&] {
            ingest::WireDecoder decoder;
            decoder.push(r.wire);
            n = 0;
            while (auto rec = decoder.next())
                n += rec->type == ingest::RecordType::kFrame;
        });
        bytes += r.wire.size();
        frames += n;
    }
    iso.decode_ns_per_frame = decode_ns / static_cast<double>(frames);
    iso.decode_mb_per_s = static_cast<double>(bytes) / (decode_ns / 1e9) / 1e6;

    // state: crc32 over each frame record of the first recording.
    const Recording& r0 = recs.front();
    iso.crc_ns_per_record =
        best_ns(3, [&] {
            std::uint32_t acc = 0;
            std::size_t from = r0.hello_end;
            for (const std::size_t to : r0.frame_end) {
                acc ^= state::crc32({r0.wire.data() + from, to - from});
                from = to;
            }
            g_sink = acc;
        }) /
        static_cast<double>(r0.frame_end.size());

    // core: a plain sequential pipeline per recording, uninstrumented.
    double process_ns = 0.0;
    std::uint64_t processed = 0;
    for (const Recording& r : recs) {
        core::BlinkRadarPipeline p(r.radar);
        const auto a = Clock::now();
        for (const radar::RadarFrame& f : r.frames) p.process(f);
        process_ns += seconds_between(a, Clock::now()) * 1e9;
        processed += r.frames.size();
        iso.restarts += static_cast<double>(p.restarts());
    }
    iso.process_ns_per_frame = process_ns / static_cast<double>(processed);
    // Reselection count from the pipeline's own counter (separate pass:
    // the registry would tax the timed one).
    for (const Recording& r : recs) {
        obs::MetricsRegistry reg;
        core::BlinkRadarPipeline p(r.radar, {}, &reg);
        for (const radar::RadarFrame& f : r.frames) p.process(f);
        iso.reselections += static_cast<double>(
            reg.counter("pipeline.reselect.switches").value());
    }

    // state: one autosnapshot of a warmed pipeline (StateWriter recycle +
    // save_state + finish, as the fleet does it), its CRC, a restore.
    core::BlinkRadarPipeline warm(r0.radar);
    for (const radar::RadarFrame& f : r0.frames) warm.process(f);
    std::vector<std::uint8_t> snap;
    iso.save_ns = median_ns(15, [&] {
        state::StateWriter w(std::move(snap));
        warm.save_state(w);
        snap = w.finish();
    });
    iso.snapshot_bytes = static_cast<double>(snap.size());
    iso.crc_ns_per_snapshot = best_ns(5, [&] {
        g_sink = state::crc32(snap);
    });
    iso.restore_ns = median_ns(15, [&] {
        core::BlinkRadarPipeline fresh(r0.radar);
        state::StateReader reader(snap);
        fresh.restore_state(reader);
    });

    // fleet: feed into a one-session engine, then evict a warm session.
    fleet::FleetConfig fc;
    fc.n_shards = 1;
    fc.record_results = false;
    fleet::FleetEngine engine(fc, &pool);
    const fleet::SessionId id = engine.create_session(r0.radar);
    const auto a = Clock::now();
    for (const radar::RadarFrame& f : r0.frames) engine.feed(id, f);
    iso.feed_ns_per_frame = seconds_between(a, Clock::now()) * 1e9 /
                            static_cast<double>(r0.frames.size());
    engine.pump();
    std::vector<double> evicts;
    for (std::size_t k = 0; k < 15; ++k) {
        engine.feed(id, r0.frames[k]);
        engine.pump();  // rehydrates (after the first round) and processes
        const auto e0 = Clock::now();
        engine.evict(id);
        evicts.push_back(seconds_between(e0, Clock::now()) * 1e9);
    }
    iso.evict_ns = median(std::move(evicts));
    return iso;
}

double per_frame(double total, std::uint64_t frames) {
    return frames == 0 ? 0.0 : total / static_cast<double>(frames);
}

}  // namespace

void layer_metrics(const std::vector<Recording>& recs, const LayerSample& in,
                   double untraced_cpu_ns_per_frame, const Capacity& cap,
                   ThreadPool& pool, RunResult& out) {
    const Isolation iso = isolate(recs, pool);
    const auto span = [&](Span s) -> const Tracer::Totals& {
        return in.spans[static_cast<std::size_t>(s)];
    };
    const std::uint64_t F = in.frames;
    // The front-end's own share of its pump; 0 where no front-end runs.
    const std::uint64_t ingest_self_ns =
        in.pump_wall_ns > in.engine_wall_ns
            ? in.pump_wall_ns - in.engine_wall_ns
            : 0;

    // The ledger: CPU ns per completed frame, layer by layer.
    const double total = per_frame(static_cast<double>(in.cpu_ns), F);
    // FleetEngine::feed is charged to the fleet line (engine_cpu_ns).
    const double loadgen = per_frame(
        static_cast<double>(span(Span::kWrite).cpu_ns +
                            span(Span::kScan).cpu_ns),
        F);
    const double wire = per_frame(
        iso.decode_ns_per_frame * static_cast<double>(in.decoded), F);
    const double ingest =
        per_frame(static_cast<double>(ingest_self_ns) - in.obs_in_pump_ns, F) -
        wire;
    const double core = in.frames == 0 ? 0.0 : iso.process_ns_per_frame;
    const double state = per_frame(
        static_cast<double>(in.autosnapshots) * iso.save_ns +
            static_cast<double>(in.evictions) * iso.evict_ns +
            static_cast<double>(in.rehydrations) * iso.restore_ns,
        F);
    const double fleet = per_frame(in.engine_cpu_ns, F) - core - state;
    const double obs = per_frame(in.obs_cpu_ns, F);
    const double unattributed =
        total - (loadgen + wire + ingest + fleet + state + core + obs);
    const double overhead_pct =
        untraced_cpu_ns_per_frame > 0.0
            ? (total - untraced_cpu_ns_per_frame) /
                  untraced_cpu_ns_per_frame * 100.0
            : 0.0;

    auto& m = out.metrics;
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({"wire.decode_ns_per_frame", iso.decode_ns_per_frame,
                 "ns/frame"});
    m.push_back({"wire.decode_mb_per_s", iso.decode_mb_per_s, "MB/s"});
    m.push_back({"wire.quarantined_bytes", u64(in.quarantined_bytes),
                 "bytes"});
    m.push_back({"wire.resyncs", u64(in.resyncs), "count"});
    m.push_back({"ingest.pump_ns_per_frame",
                 per_frame(u64(in.pump_wall_ns), F), "ns/frame"});
    m.push_back({"ingest.self_ns_per_frame",
                 per_frame(u64(ingest_self_ns), F),
                 "ns/frame"});
    m.push_back({"ingest.frames_per_pump",
                 in.pumps == 0 ? 0.0 : u64(F) / u64(in.pumps), "frames"});
    m.push_back({"ingest.backlog_max", u64(in.backlog_max), "frames"});
    m.push_back({"ingest.queue_drops", u64(in.queue_drops), "count"});
    m.push_back({"ingest.shed_transitions", u64(in.shed_transitions),
                 "count"});
    m.push_back({"ingest.admission_refused", u64(in.admission_refused),
                 "count"});
    m.push_back({"state.crc32_ns_per_record", iso.crc_ns_per_record, "ns"});
    m.push_back({"state.crc32_ns_per_snapshot", iso.crc_ns_per_snapshot,
                 "ns"});
    m.push_back({"state.save_ns", iso.save_ns, "ns"});
    m.push_back({"state.restore_ns", iso.restore_ns, "ns"});
    m.push_back({"state.snapshot_bytes", iso.snapshot_bytes, "bytes"});
    m.push_back({"fleet.feed_ns_per_frame", iso.feed_ns_per_frame,
                 "ns/frame"});
    m.push_back({"fleet.pump_ns_per_frame",
                 per_frame(u64(in.engine_wall_ns), F), "ns/frame"});
    m.push_back({"fleet.worker_skew", per_frame(in.skew_weighted, F),
                 "ratio"});
    m.push_back({"fleet.steal_ratio",
                 in.sessions_drained == 0
                     ? 0.0
                     : u64(in.sessions_stolen) / u64(in.sessions_drained),
                 "ratio"});
    m.push_back({"fleet.evict_ns", iso.evict_ns, "ns"});
    m.push_back({"fleet.evictions", u64(in.evictions), "count"});
    m.push_back({"fleet.rehydrations", u64(in.rehydrations), "count"});
    m.push_back({"fleet.resident_max", u64(in.resident_max), "sessions"});
    m.push_back({"pool.fps_full_threads", cap.fps_full, "frames/s"});
    m.push_back({"pool.fps_one_thread", cap.fps_single, "frames/s"});
    m.push_back({"pool.parallel_efficiency", cap.efficiency, "ratio"});
    m.push_back({"core.process_ns_per_frame", iso.process_ns_per_frame,
                 "ns/frame"});
    m.push_back({"core.restarts", iso.restarts, "count"});
    m.push_back({"core.reselections", iso.reselections, "count"});
    m.push_back({"obs.aggregate_ns", in.aggregate_ns, "ns"});
    m.push_back({"obs.publish_ns", in.publish_ns, "ns"});
    m.push_back({"obs.snapshot_nodes", u64(in.snapshot_nodes), "count"});
    m.push_back({"loadgen.late_p99_ms", in.late_p99_ms, "ms"});
    m.push_back({"ledger.total_ns_per_frame", total, "ns/frame"});
    m.push_back({"ledger.loadgen_ns_per_frame", loadgen, "ns/frame"});
    m.push_back({"ledger.wire_ns_per_frame", wire, "ns/frame"});
    m.push_back({"ledger.ingest_ns_per_frame", ingest, "ns/frame"});
    m.push_back({"ledger.fleet_ns_per_frame", fleet, "ns/frame"});
    m.push_back({"ledger.state_ns_per_frame", state, "ns/frame"});
    m.push_back({"ledger.core_ns_per_frame", core, "ns/frame"});
    m.push_back({"ledger.obs_ns_per_frame", obs, "ns/frame"});
    m.push_back({"ledger.unattributed_ns_per_frame", unattributed,
                 "ns/frame"});
    m.push_back({"ledger.tracing_overhead_pct", overhead_pct, "%"});

    char line[160];
    std::snprintf(line, sizeof line,
                  "capacity: %.0f fps at full threads, %.0f fps at 1 thread, "
                  "parallel_efficiency %.3f",
                  cap.fps_full, cap.fps_single, cap.efficiency);
    out.report.emplace_back(line);
    out.report.push_back("ledger (process CPU ns per completed frame, " +
                         std::to_string(F) + " frames):");
    const std::pair<const char*, double> rows[] = {
        {"loadgen", loadgen}, {"wire", wire},   {"ingest", ingest},
        {"fleet", fleet},     {"state", state}, {"core", core},
        {"obs", obs},         {"unattributed", unattributed},
    };
    for (const auto& [name, v] : rows) {
        std::snprintf(line, sizeof line, "  %-13s %12.1f  %5.1f%%", name, v,
                      total > 0.0 ? v / total * 100.0 : 0.0);
        out.report.emplace_back(line);
    }
    std::snprintf(line, sizeof line, "  %-13s %12.1f  (untraced %.1f, "
                                     "tracing overhead %+.1f%%)",
                  "= total", total, untraced_cpu_ns_per_frame,
                  overhead_pct);
    out.report.emplace_back(line);
}

}  // namespace e2e
