// live_gateway: an open-loop edge gateway. ~512 drivers stream BRWF
// bytes at 25 fps through BytePipes into IngestFrontend and FleetEngine,
// with metrics, spans and the front-end's telemetry export cadence on.
// Each frame is timed from when it was due to when its result was
// visible.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frontend.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/span.hpp"

namespace e2e {

namespace {

constexpr std::size_t kStreams = 512;
constexpr std::size_t kRecordings = 16;
/// Pre-roll lengths are drawn below the fleet's autosnapshot interval,
/// so autosnapshots land on a few sessions every tick instead of all
/// sessions at once.
constexpr std::size_t kPrerollMax = 250;
/// The gateway is provisioned for about four times its offered load
/// (128 frames per 10 ms tick), so the governor's per-tick budget, the
/// denominator of its load signal and its deliver cap, is 512 frames.
constexpr std::size_t kBudgetFramesPerTick = 512;
/// A shed rung engages after this many consecutive overloaded ticks, a
/// quarter second. With the default 3 ticks, one host stall of 150 ms
/// walked the ladder to its residency rung, which evicts every session
/// that idles for a pump; at 25 fps and a 10 ms tick that is nearly all
/// of them, so each frame rehydrates, CPU per frame grew fourfold and
/// the gateway stayed overloaded for the rest of the run.
constexpr std::size_t kEngageTicks = 25;
/// Frames written per pre-roll pump: half the per-tick budget, so
/// set-up never trips the shed ladder.
constexpr std::size_t kPrerollRound = 256;
/// Aggregate and render telemetry (in memory) every 25 ticks, 4 times a
/// second: inside pump(), so each export delays its tick's results.
constexpr std::size_t kExportEveryTicks = 25;

struct Stream {
    std::size_t rec = 0;
    ingest::StreamId id = 0;
    fleet::SessionId session = 0;
    std::size_t preroll = 0;
    double phase_s = 0.0;
    std::uint64_t sent = 0;  ///< scheduled frames written
    std::uint64_t done = 0;  ///< scheduled frames with a result
    SnapshotMirror mirror;
};

/// Member order is destruction order reversed: the pipes outlive the
/// front-end that reads them, the collectors outlive engine and
/// front-end.
struct Gateway {
    std::vector<Recording> recs;
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    obs::MetricsRegistry metrics;
    obs::telemetry::SpanCollector spans;
    std::unique_ptr<fleet::FleetEngine> engine;
    std::unique_ptr<ingest::IngestFrontend> fe;
    std::vector<Stream> streams;
    std::uint64_t inputs = 0;
};

std::unique_ptr<Gateway> set_up(const Options& opt) {
    auto g = std::make_unique<Gateway>();
    Rng rng(opt.seed);
    g->recs = make_recordings(
        kRecordings, (kPrerollMax + 1) * kFramePeriodS + opt.seconds + 1.0,
        rng);

    fleet::FleetConfig fc;
    fc.n_shards = shards_for(opt.threads);
    fc.record_results = false;
    fc.collect_metrics = true;
    fc.span_collector = &g->spans;
    g->engine = std::make_unique<fleet::FleetEngine>(fc, opt.pool);

    ingest::IngestConfig ic;
    ic.admission.capacity = static_cast<double>(kStreams);
    ic.seed = opt.seed;
    ic.telemetry.export_every_ticks = kExportEveryTicks;
    ic.governor.budget_frames_per_tick = kBudgetFramesPerTick;
    ic.governor.engage_ticks = kEngageTicks;
    g->fe = std::make_unique<ingest::IngestFrontend>(
        ic, *g->engine, &g->metrics, nullptr, &g->spans);

    // Stratified pre-roll lengths, shuffled: autosnapshots spread evenly
    // over the schedule instead of clumping by chance.
    std::vector<std::size_t> prerolls(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i)
        prerolls[i] = i * kPrerollMax / kStreams;
    std::shuffle(prerolls.begin(), prerolls.end(), rng.engine());
    g->streams.resize(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
        Stream& s = g->streams[i];
        s.rec = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kRecordings) - 1));
        s.preroll = prerolls[i];
        s.phase_s = rng.uniform(0.0, kFramePeriodS);
        s.mirror.since = s.preroll;
        g->pipes.push_back(std::make_unique<ingest::BytePipe>());
        const ingest::Admission adm =
            g->fe->open_stream(g->pipes.back()->make_source());
        if (!adm.admitted())
            throw std::runtime_error("live_gateway: stream refused admission");
        s.id = adm.id;
    }

    // Pre-roll: stream header, hello and the first `preroll` frames, in
    // rounds the governor's budget absorbs in one tick.
    std::vector<std::size_t> written(kStreams, 0);
    for (std::size_t i = 0; i < kStreams; ++i)
        g->pipes[i]->write(
            {g->recs[g->streams[i].rec].wire.data(),
             g->recs[g->streams[i].rec].hello_end});
    for (bool more = true; more;) {
        more = false;
        std::size_t round = 0;
        for (std::size_t i = 0; i < kStreams && round < kPrerollRound; ++i) {
            const Stream& s = g->streams[i];
            if (written[i] == s.preroll) continue;
            const Recording& r = g->recs[s.rec];
            const std::size_t from = r.prefix_bytes(written[i]);
            const std::size_t to = r.frame_end[written[i]];
            g->pipes[i]->write({r.wire.data() + from, to - from});
            ++written[i];
            ++round;
            more = true;
        }
        g->fe->pump();
    }
    while (g->fe->pump().frames_processed != 0) {
    }
    std::vector<double> params;
    for (Stream& s : g->streams) {
        s.session = *g->fe->session_of(s.id);
        params.insert(params.end(), {static_cast<double>(s.rec),
                                     static_cast<double>(s.preroll),
                                     s.phase_s});
    }
    g->inputs = fingerprint(g->recs, params);
    return g;
}

OpenLoop measure(Gateway& g, const Options& opt, Tracer& tracer) {
    OpenLoop out;
    std::vector<std::vector<double>> due(g.streams.size());
    for (std::size_t i = 0; i < g.streams.size(); ++i) {
        const Stream& s = g.streams[i];
        const std::size_t frames = g.recs[s.rec].frames.size();
        for (std::size_t j = 0; s.preroll + j < frames; ++j) {
            const double d = s.phase_s + static_cast<double>(j) * kFramePeriodS;
            if (d >= opt.seconds) break;
            due[i].push_back(d);
        }
    }

    const std::size_t interval = g.engine->config().snapshot_interval_frames;
    LayerSample& ls = out.layers;
    const auto send = [&](std::uint32_t i, std::uint64_t j) {
        Stream& s = g.streams[i];
        const Recording& r = g.recs[s.rec];
        const std::size_t k = s.preroll + j;
        const std::size_t from = r.prefix_bytes(k);
        const std::size_t len = r.frame_end[k] - from;
        Tracer::Scope span(tracer, Span::kWrite);
        if (g.pipes[i]->write({r.wire.data() + from, len}) != len)
            return false;
        ++s.sent;
        return true;
    };
    const auto pump = [&](std::uint64_t) {
        ingest::PumpReport rep;
        {
            Tracer::Scope span(tracer, Span::kPump);
            rep = g.fe->pump();
        }
        ++ls.pumps;
        ls.engine_wall_ns += rep.pump_ns;
        ls.backlog_max = std::max<std::uint64_t>(ls.backlog_max, rep.backlog);
        if (tracer.on()) ls.note_pump_stats(g.engine->last_pump_stats());
    };
    const auto done_of = [&](std::uint32_t i) {
        Stream& s = g.streams[i];
        const fleet::SessionStats& st = g.engine->stats(s.session);
        const std::uint64_t done = st.frames_processed - s.preroll;
        if (tracer.on())
            ls.autosnapshots +=
                s.mirror.advance(done - s.done, st.rehydrations, interval);
        s.done = done;
        return Outcome{done, st.frames_dropped +
                                 g.fe->stream_stats(s.id).frames_dropped};
    };
    drive_schedule(due, opt.seconds, tracer, send, pump, done_of, {}, out);

    ls.decoded = ls.frames;
    ls.take_spans(tracer);
    const Tracer::Totals& pumps = tracer.totals(Span::kPump);
    ls.pump_wall_ns = pumps.wall_ns;
    // The front-end's part of the pump runs on this thread alone, so its
    // wall time is its CPU time; the rest of the pump's CPU is the engine's.
    ls.engine_cpu_ns = static_cast<double>(pumps.cpu_ns) -
                       (static_cast<double>(pumps.wall_ns) -
                        static_cast<double>(ls.engine_wall_ns));
    const obs::MetricsRegistry& snap = g.fe->aggregator().output();
    ls.snapshot_nodes = snap.counters().size() + snap.gauges().size() +
                        snap.histograms().size();
    ls.resident_max = g.engine->resident_count();
    for (const Stream& s : g.streams) {
        const ingest::DecodeStats& d = g.fe->decode_stats(s.id);
        ls.quarantined_bytes += d.quarantined_bytes;
        ls.resyncs += d.resyncs;
        ls.queue_drops += g.fe->stream_stats(s.id).frames_dropped;
    }
    ls.shed_transitions = g.fe->shed_events().size();
    ls.admission_refused =
        g.metrics.counter("ingest.streams.refused_tokens").value() +
        g.metrics.counter("ingest.streams.refused_shed").value();
    if (tracer.on()) {
        // The exports ran inside pump(); time the same calls alone.
        obs::telemetry::Aggregator agg;
        std::vector<double> aggregate;
        std::vector<double> publish;
        for (int r = 0; r < 5; ++r) {
            auto a = Clock::now();
            g.engine->aggregate_into(agg);
            aggregate.push_back(seconds_between(a, Clock::now()) * 1e9);
            a = Clock::now();
            g.fe->publish_telemetry();
            publish.push_back(seconds_between(a, Clock::now()) * 1e9);
        }
        ls.aggregate_ns = median(aggregate);
        ls.publish_ns = median(publish);
        ls.obs_in_pump_ns = static_cast<double>(ls.pumps / kExportEveryTicks) *
                            ls.publish_ns;
        ls.obs_cpu_ns = ls.obs_in_pump_ns;
    }
    return out;
}

/// Close every stream and check results and loss accounting.
void tear_down(Gateway& g, OpenLoop& out) {
    for (auto& pipe : g.pipes) pipe->close();
    for (int tick = 0; !g.fe->drained() && tick < 100000; ++tick)
        g.fe->pump();
    for (const Stream& s : g.streams) {
        const Recording& r = g.recs[s.rec];
        const std::vector<core::DetectedBlink> blinks =
            g.engine->blinks(s.session);
        const ingest::StreamStats ss = g.fe->stream_stats(s.id);
        const std::uint64_t decoded = g.fe->decode_stats(s.id).frames_decoded;
        const fleet::SessionStats fin = g.fe->close_stream(s.id);
        LossLedger loss;
        loss.sent = s.preroll + s.sent;
        loss.results = fin.frames_processed;
        loss.queue_drops = ss.frames_dropped;
        loss.quarantined = loss.sent - std::min(decoded, loss.sent);
        loss.cold_drops = fin.frames_dropped;
        check_stream("stream " + std::to_string(s.id), loss, decoded,
                     loss.sent, ss.queued + (ss.holding ? 1 : 0), r.ref,
                     fin.frames_processed, blinks, out.loss, out.errors);
    }
}

}  // namespace

RunResult run_live_gateway(const Options& opt) {
    // Capacity probe: 32 whole recordings replayed closed-loop through
    // the same gateway configuration (telemetry on).
    const auto probe = [&](const Gateway& g) {
        std::vector<WireStream> streams;
        for (std::size_t i = 0; i < 32; ++i) {
            const Recording& r = g.recs[i % g.recs.size()];
            streams.push_back({&r.wire, &r.ref, r.frames.size(),
                               r.ref.frames});
        }
        return ingest_capacity(streams, opt, true);
    };
    return run_open_loop<Gateway>(opt, set_up, measure, tear_down, probe);
}

}  // namespace e2e
