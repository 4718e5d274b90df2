// churn_evict: open loop straight into FleetEngine::feed, bypassing the
// wire and ingest layers. 512 registered drivers, eight times the
// residency cap, stream at 25 fps in seeded bursts, so idle sessions are
// evicted to memory and rehydrated when they resume, and aggregate_into
// rolls the whole population up once per second.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/export.hpp"

namespace e2e {

namespace {

constexpr std::size_t kDrivers = 512;
constexpr std::size_t kResidentCap = 64;
constexpr std::size_t kRecordings = 16;
constexpr std::size_t kPrerollMax = 250;
/// Exactly kActive drivers stream at any moment, each in a 2 s burst;
/// when a burst ends its slot passes to a driver picked at random among
/// the idle ones. That keeps the offered load (kActive x 25 fps) and the
/// resume rate (18/s) fixed while the population, 8x the cap, churns
/// through residency: a picked driver has mostly been evicted and pays
/// a rehydration.
constexpr std::size_t kActive = 36;
constexpr double kBurstS = 2.0;
/// aggregate_into once per second.
constexpr auto kTicksPerAggregate =
    static_cast<std::uint64_t>(1.0 / kTickS + 0.5);

struct Driver {
    std::size_t rec = 0;
    fleet::SessionId session = 0;
    std::size_t preroll = 0;
    std::vector<double> due;  ///< this run's frames, seconds from start
    std::uint64_t sent = 0;
    std::uint64_t done = 0;
    SnapshotMirror mirror;
};

struct Churn {
    std::vector<Recording> recs;
    std::unique_ptr<fleet::FleetEngine> engine;
    obs::telemetry::Aggregator agg;
    obs::telemetry::SnapshotPublisher publisher;  ///< rendered in memory
    std::vector<Driver> drivers;
    std::uint64_t inputs = 0;
};

fleet::FleetConfig churn_config(std::size_t threads) {
    fleet::FleetConfig fc;
    fc.n_shards = shards_for(threads);
    fc.record_results = false;
    fc.collect_metrics = true;
    fc.residency.max_resident = kResidentCap;
    return fc;
}

std::unique_ptr<Churn> set_up(const Options& opt) {
    auto c = std::make_unique<Churn>();
    Rng rng(opt.seed);
    c->recs = make_recordings(
        kRecordings, (kPrerollMax + 1) * kFramePeriodS + opt.seconds + 1.0,
        rng);
    c->engine = std::make_unique<fleet::FleetEngine>(
        churn_config(opt.threads), opt.pool);

    c->drivers.resize(kDrivers);
    std::vector<double> phase(kDrivers);
    for (std::size_t i = 0; i < kDrivers; ++i) {
        Driver& d = c->drivers[i];
        d.rec = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kRecordings) - 1));
        d.preroll = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kPrerollMax) - 1));
        d.mirror.since = d.preroll;
        phase[i] = rng.uniform(0.0, kFramePeriodS);
    }
    // Slots hand bursts to idle drivers in time order, so each driver's
    // due times ascend and no driver holds two slots at once.
    // Slot phases are stratified, so a burst starts every kBurstS /
    // kActive seconds (jittered) rather than in random clumps.
    std::vector<double> slot_next(kActive);
    for (std::size_t k = 0; k < kActive; ++k)
        slot_next[k] = -(static_cast<double>(k) + rng.uniform(0.0, 1.0)) *
                       kBurstS / static_cast<double>(kActive);
    std::vector<double> busy_until(kDrivers, -1e300);
    for (;;) {
        const auto slot = std::min_element(slot_next.begin(), slot_next.end());
        const double t = *slot;
        if (t >= opt.seconds) break;
        std::size_t i = 0;
        do {
            i = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(kDrivers) - 1));
        } while (busy_until[i] > t);
        const double len = kBurstS;
        busy_until[i] = t + len;
        *slot = t + len;
        Driver& d = c->drivers[i];
        const std::size_t frames = c->recs[d.rec].frames.size();
        const double k0 =
            std::ceil((std::max(t, 0.0) - phase[i]) / kFramePeriodS);
        for (double k = std::max(k0, 0.0);; k += 1.0) {
            const double due = phase[i] + k * kFramePeriodS;
            if (due >= t + len || due >= opt.seconds ||
                d.preroll + d.due.size() >= frames)
                break;
            d.due.push_back(due);
        }
    }

    // Pre-roll in cap-sized batches, drivers due first batched last, so
    // the residency policy keeps exactly them resident at the start and
    // never more than two batches of pipelines exist at once.
    std::vector<std::size_t> order(kDrivers);
    std::iota(order.begin(), order.end(), 0);
    const auto first_due = [&](std::size_t i) {
        return c->drivers[i].due.empty() ? 1e300 : c->drivers[i].due.front();
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return first_due(a) > first_due(b);
                     });
    for (std::size_t b = 0; b < kDrivers; b += kResidentCap) {
        for (std::size_t j = b; j < std::min(b + kResidentCap, kDrivers);
             ++j) {
            Driver& d = c->drivers[order[j]];
            const Recording& r = c->recs[d.rec];
            d.session = c->engine->create_session(r.radar);
            for (std::size_t k = 0; k < d.preroll; ++k)
                c->engine->feed(d.session, r.frames[k]);
        }
        c->engine->pump();
    }
    std::vector<double> params;
    for (const Driver& d : c->drivers) {
        params.insert(params.end(), {static_cast<double>(d.rec),
                                     static_cast<double>(d.preroll)});
        params.insert(params.end(), d.due.begin(), d.due.end());
    }
    c->inputs = fingerprint(c->recs, params);
    return c;
}

OpenLoop measure(Churn& c, const Options& opt, Tracer& tracer) {
    OpenLoop out;
    std::vector<std::vector<double>> due;
    for (const Driver& d : c.drivers) due.push_back(d.due);

    fleet::FleetEngine& engine = *c.engine;
    const std::size_t interval = engine.config().snapshot_interval_frames;
    LayerSample& ls = out.layers;
    std::uint64_t evictions0 = 0;
    std::uint64_t rehydrations0 = 0;
    for (const Driver& d : c.drivers) {
        evictions0 += engine.stats(d.session).evictions;
        rehydrations0 += engine.stats(d.session).rehydrations;
    }

    const auto send = [&](std::uint32_t i, std::uint64_t j) {
        Driver& d = c.drivers[i];
        const radar::RadarFrame& f = c.recs[d.rec].frames[d.preroll + j];
        Tracer::Scope span(tracer, Span::kFeed);
        engine.feed(d.session, f);
        ++d.sent;
        return true;
    };
    const auto pump = [&](std::uint64_t) {
        {
            Tracer::Scope span(tracer, Span::kPump);
            engine.pump();
        }
        if (tracer.on()) {
            ls.note_pump_stats(engine.last_pump_stats());
            ls.resident_max = std::max<std::uint64_t>(
                ls.resident_max, engine.resident_count());
        }
    };
    const auto done_of = [&](std::uint32_t i) {
        Driver& d = c.drivers[i];
        const fleet::SessionStats& st = engine.stats(d.session);
        const std::uint64_t done = st.frames_processed - d.preroll;
        if (tracer.on())
            ls.autosnapshots +=
                d.mirror.advance(done - d.done, st.rehydrations, interval);
        d.done = done;
        return Outcome{done, st.frames_dropped};
    };
    // Once per second, after the tick's results are out: the roll-up
    // delays results only when it overruns the gap to the next tick.
    const auto after_pump = [&](std::uint64_t tick) {
        if (tick % kTicksPerAggregate != 0) return;
        {
            Tracer::Scope span(tracer, Span::kAggregate);
            engine.aggregate_into(c.agg);
        }
        Tracer::Scope span(tracer, Span::kPublish);
        c.publisher.publish(c.agg.output());
    };
    drive_schedule(due, opt.seconds, tracer, send, pump, done_of, after_pump,
                   out);

    ls.take_spans(tracer);
    const Tracer::Totals& aggs = tracer.totals(Span::kAggregate);
    const Tracer::Totals& pubs = tracer.totals(Span::kPublish);
    if (aggs.calls > 0) {
        ls.aggregate_ns = static_cast<double>(aggs.wall_ns) /
                          static_cast<double>(aggs.calls);
        ls.publish_ns = static_cast<double>(pubs.wall_ns) /
                        static_cast<double>(pubs.calls);
    }
    ls.obs_cpu_ns = static_cast<double>(aggs.cpu_ns + pubs.cpu_ns);
    const Tracer::Totals& pumps = tracer.totals(Span::kPump);
    ls.engine_wall_ns = pumps.wall_ns;
    ls.engine_cpu_ns = static_cast<double>(
        pumps.cpu_ns + tracer.totals(Span::kFeed).cpu_ns);
    const obs::MetricsRegistry& snap = c.agg.output();
    ls.snapshot_nodes = snap.counters().size() + snap.gauges().size() +
                        snap.histograms().size();
    for (const Driver& d : c.drivers) {
        ls.evictions += engine.stats(d.session).evictions;
        ls.rehydrations += engine.stats(d.session).rehydrations;
    }
    ls.evictions -= evictions0;
    ls.rehydrations -= rehydrations0;
    return out;
}

void tear_down(Churn& c, OpenLoop& out) {
    for (std::size_t i = 0; i < c.drivers.size(); ++i) {
        const Driver& d = c.drivers[i];
        const std::vector<core::DetectedBlink> blinks =
            c.engine->blinks(d.session);
        const fleet::SessionStats fin = c.engine->close(d.session);
        LossLedger loss;
        loss.sent = d.preroll + d.sent;
        loss.results = fin.frames_processed;
        loss.cold_drops = fin.frames_dropped;
        // No wire here: every fed frame reaches the session's inbox.
        check_stream("driver " + std::to_string(i), loss, loss.sent,
                     loss.sent, 0, c.recs[d.rec].ref, fin.frames_processed,
                     blinks, out.loss, out.errors);
    }
}

}  // namespace

Capacity fleet_capacity(const std::vector<Recording>& recs,
                        const Options& opt) {
    constexpr std::size_t kSessions = 32;
    constexpr std::size_t kPairs = 3;
    Capacity cap;
    std::vector<double> full;
    std::vector<double> single;
    for (std::size_t pair = 0; pair < kPairs; ++pair)
        for (const std::size_t threads : {opt.threads, std::size_t{1}}) {
            fleet::FleetEngine engine(churn_config(threads), opt.pool);
            std::vector<fleet::SessionId> ids;
            for (std::size_t s = 0; s < kSessions; ++s)
                ids.push_back(
                    engine.create_session(recs[s % recs.size()].radar));
            const auto a = Clock::now();
            std::uint64_t frames = 0;
            for (std::size_t s = 0; s < kSessions; ++s) {
                engine.feed(ids[s], recs[s % recs.size()].frames);
                frames += recs[s % recs.size()].frames.size();
            }
            engine.pump();
            const double wall = seconds_between(a, Clock::now());
            std::uint64_t processed = 0;
            for (std::size_t s = 0; s < kSessions; ++s) {
                const Recording& r = recs[s % recs.size()];
                processed += engine.stats(ids[s]).frames_processed;
                if (!blinks_match(r.ref, r.frames.size(),
                                  engine.blinks(ids[s])))
                    cap.errors.push_back("capacity session " +
                                         std::to_string(s) +
                                         ": blink events differ from the "
                                         "sequential reference");
            }
            if (processed != frames)
                cap.errors.push_back("capacity pass lost frames");
            (threads == 1 ? single : full)
                .push_back(static_cast<double>(frames) / wall);
        }
    cap.fps_full = median(full);
    cap.fps_single = median(single);
    cap.efficiency =
        cap.fps_full / (static_cast<double>(opt.threads) * cap.fps_single);
    return cap;
}

RunResult run_churn_evict(const Options& opt) {
    const auto probe = [&](const Churn& c) {
        return fleet_capacity(c.recs, opt);
    };
    return run_open_loop<Churn>(opt, set_up, measure, tear_down, probe);
}

}  // namespace e2e
