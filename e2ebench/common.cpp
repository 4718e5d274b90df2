#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <ctime>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "ingest/wire_format.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace e2e {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::size_t shards_for(std::size_t threads) {
    return threads <= 1 ? 1 : 2 * threads;
}

// ---------------------------------------------------------------- inputs

Reference reference_over(const radar::RadarConfig& radar,
                         const radar::FrameSeries& frames) {
    Reference ref;
    core::BlinkRadarPipeline pipeline(radar);
    for (const radar::RadarFrame& f : frames) {
        const core::FrameResult r = pipeline.process(f);
        if (r.blink) {
            ref.emit_at.push_back(ref.frames);
            ref.blinks.push_back(*r.blink);
        }
        ++ref.frames;
    }
    return ref;
}

radar::FrameSeries decode_all(const std::vector<std::uint8_t>& bytes) {
    ingest::WireDecoder decoder;
    decoder.push(bytes);
    radar::FrameSeries frames;
    while (auto rec = decoder.next())
        if (rec->type == ingest::RecordType::kFrame)
            frames.push_back(std::move(rec->frame));
    return frames;
}

std::vector<Recording> make_recordings(std::size_t n, double duration_s,
                                       Rng& rng) {
    const std::vector<physio::DriverProfile> drivers =
        physio::sample_participants(n, rng);
    std::vector<Recording> recs(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Pipeline cost depends on the road (vibration, manoeuvres), on
        // alertness (blink shape and rate) and on body movements (each
        // one restarts detection), so the set spans all three.
        sim::ScenarioConfig sc;
        sc.driver = drivers[i];
        sc.environment = sim::Environment::kDriving;
        sc.road = static_cast<vehicle::RoadType>(i % 8);
        sc.alertness = i % 3 == 2 ? physio::Alertness::kDrowsy
                                  : physio::Alertness::kAwake;
        const double movement = rng.uniform(0.5, 3.0);
        sc.body_events.steering_rate_per_min *= movement;
        sc.body_events.mirror_rate_per_min *= movement;
        sc.body_events.yawn_rate_per_min *= movement;
        sc.duration_s = duration_s;
        sc.seed = rng.engine()();
        sim::SimulatedSession sim = sim::simulate_session(sc);

        Recording& r = recs[i];
        r.radar = sim.radar;
        r.frames = std::move(sim.frames);
        ingest::WireHello hello;
        hello.radar = r.radar;
        hello.stream_tag = i;
        ingest::WireEncoder enc(hello);
        r.hello_end = enc.bytes().size();
        r.frame_end.reserve(r.frames.size());
        for (const radar::RadarFrame& f : r.frames) {
            enc.encode_frame(f);
            r.frame_end.push_back(enc.bytes().size());
        }
        r.wire = enc.take();
        r.ref = reference_over(r.radar, decode_all(r.wire));
    }
    return recs;
}

std::uint64_t fingerprint(const void* bytes, std::size_t n,
                          std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t fingerprint(const std::vector<Recording>& recs,
                          const std::vector<double>& extra) {
    std::uint64_t h = fingerprint(extra.data(), extra.size() * sizeof(double));
    for (const Recording& r : recs)
        h = fingerprint(r.wire.data(), r.wire.size(), h);
    return h;
}

namespace {
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

bool blinks_match(const Reference& ref, std::uint64_t frames,
                  const std::vector<core::DetectedBlink>& got) {
    const auto expected = static_cast<std::size_t>(
        std::lower_bound(ref.emit_at.begin(), ref.emit_at.end(), frames) -
        ref.emit_at.begin());
    if (frames > ref.frames || got.size() != expected) return false;
    for (std::size_t i = 0; i < expected; ++i) {
        const core::DetectedBlink& a = ref.blinks[i];
        const core::DetectedBlink& b = got[i];
        if (!same_bits(a.peak_s, b.peak_s) ||
            !same_bits(a.duration_s, b.duration_s) ||
            !same_bits(a.magnitude, b.magnitude) ||
            !same_bits(a.strength, b.strength))
            return false;
    }
    return true;
}

// --------------------------------------------------------------- tracing

Tracer::Scope::Scope(Tracer& t, Span s) : t_(t), s_(s) {
    if (!t_.on_) return;
    cpu0_ = process_cpu_ns();
    wall0_ = Clock::now();
}

Tracer::Scope::~Scope() {
    if (!t_.on_) return;
    const auto wall1 = Clock::now();
    const std::uint64_t cpu1 = process_cpu_ns();
    Totals& tot = t_.totals_[static_cast<std::size_t>(s_)];
    ++tot.calls;
    tot.wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0_)
            .count());
    tot.cpu_ns += cpu1 - cpu0_;
}

// --------------------------------------------------------------- results

void LossLedger::add(const LossLedger& o) {
    sent += o.sent;
    results += o.results;
    queue_drops += o.queue_drops;
    quarantined += o.quarantined;
    refused += o.refused;
    cold_drops += o.cold_drops;
    expected_quarantined += o.expected_quarantined;
}

void LayerSample::note_pump_stats(
    const std::vector<fleet::ShardStats>& slots) {
    std::uint64_t total = 0;
    std::uint64_t most = 0;
    for (const fleet::ShardStats& s : slots) {
        total += s.frames_processed;
        most = std::max(most, s.frames_processed);
        sessions_drained += s.sessions_drained;
        sessions_stolen += s.sessions_stolen;
    }
    if (total == 0) return;
    const double mean =
        static_cast<double>(total) / static_cast<double>(slots.size());
    skew_weighted += static_cast<double>(total) *
                     (static_cast<double>(most) / mean);
}

void LayerSample::take_spans(const Tracer& t) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount_); ++i)
        spans[i] = t.totals(static_cast<Span>(i));
}

std::uint64_t SnapshotMirror::advance(std::uint64_t processed,
                                      std::uint64_t rehyd,
                                      std::size_t interval) {
    if (rehyd != rehydrations) {
        since = 0;
        rehydrations = rehyd;
    }
    since += processed;
    const std::uint64_t taken = since / interval;
    since %= interval;
    return taken;
}

void check_stream(const std::string& what, const LossLedger& loss,
                  std::uint64_t decoded, std::uint64_t expect_decoded,
                  std::uint64_t still_queued, const Reference& ref,
                  std::uint64_t processed,
                  const std::vector<core::DetectedBlink>& blinks,
                  LossLedger& total, std::vector<std::string>& errors) {
    LossLedger l = loss;
    l.expected_quarantined = l.sent - expect_decoded;
    total.add(l);
    if (decoded != expect_decoded)
        errors.push_back(what + ": decoder yielded " +
                         std::to_string(decoded) + " frames, reference " +
                         std::to_string(expect_decoded));
    if (!l.balanced())
        errors.push_back(
            what + ": loss identity broken: sent " + std::to_string(l.sent) +
            " != results " + std::to_string(l.results) + " + queue drops " +
            std::to_string(l.queue_drops) + " + quarantined " +
            std::to_string(l.quarantined) + " + refused " +
            std::to_string(l.refused) + " + cold drops " +
            std::to_string(l.cold_drops));
    if (still_queued != 0)
        errors.push_back(what + ": " + std::to_string(still_queued) +
                         " frames still queued after drain");
    if (!blinks_match(ref, processed, blinks))
        errors.push_back(what + ": blink events differ from the sequential "
                                "reference");
}

void add_e2e_metrics(RunResult& res, const std::vector<double>& setup_s,
                     std::vector<double> latency_ms, std::uint64_t window_sent,
                     double throughput_fps, double cpu_us_per_frame,
                     const LossLedger& loss, std::size_t p99_windows) {
    const std::size_t samples = latency_ms.size();
    const std::uint64_t met = static_cast<std::uint64_t>(std::count_if(
        latency_ms.begin(), latency_ms.end(),
        [](double ms) { return ms <= kDeadlineMs; }));
    // The samples arrive in time order. The gated p99 is the median of
    // the p99s of `p99_windows` consecutive equal slices of them, so one
    // host stall moves one slice, not the figure.
    std::vector<double> window_p99;
    for (std::size_t w = 0; w < p99_windows; ++w) {
        std::vector<double> slice(
            latency_ms.begin() +
                static_cast<std::ptrdiff_t>(w * samples / p99_windows),
            latency_ms.begin() +
                static_cast<std::ptrdiff_t>((w + 1) * samples / p99_windows));
        if (!slice.empty()) window_p99.push_back(quantile(slice, 0.99));
    }
    const double p99 = median(window_p99);
    const double p50 = quantile(latency_ms, 0.50);
    const double p99_run = quantile(latency_ms, 0.99);
    const double met_ratio =
        window_sent == 0 ? 0.0
                         : static_cast<double>(met) /
                               static_cast<double>(window_sent);
    const double completed =
        loss.sent == 0 ? 0.0
                       : static_cast<double>(loss.results) /
                             static_cast<double>(loss.sent);
    auto& m = res.metrics;
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"latency_p50_ms", p50, "ms"});
    m.push_back({"latency_p99_ms", p99, "ms"});
    m.push_back({"deadline_met_ratio", met_ratio, "ratio"});
    m.push_back({"throughput_fps", throughput_fps, "frames/s"});
    m.push_back({"cpu_us_per_frame", cpu_us_per_frame, "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    m.push_back({"frames_completed_ratio", completed, "ratio"});

    char line[256];
    std::snprintf(line, sizeof line,
                  "latency: p50 %.3f ms, p99 %.3f ms (median of %zu "
                  "windows; whole run %.3f ms) over %zu samples",
                  p50, p99, window_p99.size(), p99_run, samples);
    res.report.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "deadline_miss_ratio %.6f (%llu of %llu frames later than "
                  "%.0f ms or lost)",
                  1.0 - met_ratio,
                  static_cast<unsigned long long>(window_sent - met),
                  static_cast<unsigned long long>(window_sent), kDeadlineMs);
    res.report.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "frames_lost_ratio %.6f (sent %llu = results %llu + queue "
                  "drops %llu + quarantined %llu + refused %llu + cold "
                  "drops %llu)",
                  1.0 - completed, static_cast<unsigned long long>(loss.sent),
                  static_cast<unsigned long long>(loss.results),
                  static_cast<unsigned long long>(loss.queue_drops),
                  static_cast<unsigned long long>(loss.quarantined),
                  static_cast<unsigned long long>(loss.refused),
                  static_cast<unsigned long long>(loss.cold_drops));
    res.report.emplace_back(line);
    res.attempted = loss.sent;
    res.failed = loss.sent - loss.results - loss.expected_quarantined;
}

namespace {
double late_p99(OpenLoop& o) { return quantile(o.late_ms, 0.99); }

void guard_generator(OpenLoop& o, const char* pass, RunResult& res) {
    // The highest percentile up to p99 with ten sleeps beyond it, so a
    // short run is not judged by its single worst wake-up.
    const double n = static_cast<double>(o.late_ms.size());
    const double q = std::min(0.99, n > 10.0 ? 1.0 - 10.0 / n : 0.0);
    const double late = quantile(o.late_ms, q);
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "generator (%s): woke %.3f ms late at p%.0f over %zu "
                  "sleeps",
                  pass, late, q * 100.0, o.late_ms.size());
    res.report.emplace_back(msg);
    if (late > kMaxGeneratorLateMs) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "load generator woke %.2f ms late at p%.0f (limit %.0f "
                      "ms): the host, not the program, set the pace",
                      late, q * 100.0, kMaxGeneratorLateMs);
        res.invalid = line;
    }
}

double per_frame_ns(const OpenLoop& o) {
    return o.latency_ms.empty() ? 0.0
                                : static_cast<double>(o.cpu_ns) /
                                      static_cast<double>(o.latency_ms.size());
}
}  // namespace

void finish_open_loop(const Options& opt, const std::vector<double>& setup_s,
                      OpenLoop& untraced, OpenLoop* traced,
                      const Capacity& cap, const std::vector<Recording>& recs,
                      RunResult& res) {
    for (const OpenLoop* o : {&untraced, traced})
        if (o != nullptr)
            res.errors.insert(res.errors.end(), o->errors.begin(),
                              o->errors.end());
    res.errors.insert(res.errors.end(), cap.errors.begin(), cap.errors.end());
    guard_generator(untraced, "untraced", res);
    if (traced == nullptr) {
        // Open loop: results per second of the window, which tracks the
        // offered load while the program keeps up and falls when it
        // loses frames or overruns the schedule.
        add_e2e_metrics(res, setup_s, untraced.latency_ms, untraced.sent,
                        static_cast<double>(untraced.latency_ms.size()) /
                            untraced.wall_s,
                        per_frame_ns(untraced) / 1e3, untraced.loss,
                        static_cast<std::size_t>(std::max(
                            1.0, std::round(opt.seconds / kLatencyWindowS))));
    } else {
        guard_generator(*traced, "traced", res);
        traced->layers.late_p99_ms = late_p99(*traced);
        layer_metrics(recs, traced->layers, per_frame_ns(untraced), cap,
                      *opt.pool, res);
        const LossLedger& loss = traced->loss;
        res.attempted = loss.sent;
        res.failed = loss.sent - loss.results - loss.expected_quarantined;
    }
    res.correct = res.errors.empty();
}

void drive_schedule(const std::vector<std::vector<double>>& due,
                    double seconds, Tracer& tracer, const SendFn& send,
                    const Hook& pump, const DoneFn& done_of,
                    const Hook& after_pump, OpenLoop& out) {
    struct Event {
        double due_s;
        std::uint32_t stream;
    };
    std::vector<Event> events;
    for (std::uint32_t i = 0; i < due.size(); ++i)
        for (const double d : due[i]) events.push_back({d, i});
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                         return a.due_s < b.due_s;
                     });
    out.sent = events.size();
    out.latency_ms.reserve(events.size());

    std::vector<std::uint64_t> sent(due.size(), 0);
    std::vector<std::uint64_t> done(due.size(), 0);
    std::vector<char> is_pending(due.size(), 0);
    std::vector<std::uint32_t> pending;
    std::size_t cursor = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::this_thread::sleep_until(t0);
    const std::uint64_t cpu0 = process_cpu_ns();
    for (std::uint64_t tick = 1;; ++tick) {
        // Sleep, never spin, so process CPU time stays the program's. How
        // late the wake-up comes is the generator's own lag.
        const double target = static_cast<double>(tick) * kTickS;
        if (target > seconds_between(t0, Clock::now())) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(target)));
            out.late_ms.push_back(
                (seconds_between(t0, Clock::now()) - target) * 1e3);
        }
        const double now = seconds_between(t0, Clock::now());
        while (cursor < events.size() && events[cursor].due_s <= now) {
            const std::uint32_t i = events[cursor++].stream;
            if (!send(i, sent[i])) {
                out.errors.push_back("stream " + std::to_string(i) +
                                     ": transport refused a frame");
                return;
            }
            ++sent[i];
            if (!is_pending[i]) {
                is_pending[i] = 1;
                pending.push_back(i);
            }
        }
        pump(tick);
        const double t_vis = seconds_between(t0, Clock::now());
        {
            Tracer::Scope span(tracer, Span::kScan);
            for (std::size_t p = 0; p < pending.size();) {
                const std::uint32_t i = pending[p];
                const Outcome o = done_of(i);
                for (std::uint64_t k = done[i]; k < o.results; ++k)
                    out.latency_ms.push_back(
                        (t_vis - due[i][k + o.lost]) * 1e3);
                done[i] = o.results;
                if (o.results + o.lost == sent[i]) {
                    is_pending[i] = 0;
                    pending[p] = pending.back();
                    pending.pop_back();
                } else {
                    ++p;
                }
            }
        }
        if (after_pump) after_pump(tick);
        if (cursor == events.size() && pending.empty()) break;
        if (now > seconds + 30.0) {
            out.errors.push_back("results stalled past the schedule");
            return;
        }
        // An overrun tick is not made up: the next one starts now.
        const double behind = seconds_between(t0, Clock::now()) / kTickS;
        if (behind > static_cast<double>(tick + 1))
            tick = static_cast<std::uint64_t>(behind) - 1;
    }
    out.cpu_ns = process_cpu_ns() - cpu0;
    out.wall_s = seconds_between(t0, Clock::now());
    out.layers.frames = out.latency_ms.size();
    out.layers.cpu_ns = out.cpu_ns;
}

}  // namespace e2e
