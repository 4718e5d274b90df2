// Shared pieces of the end-to-end benchmark: options, clocks, simulated
// recordings with their sequential reference, the span tracer behind the
// per-layer ledger, and the metric list every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/levd.hpp"
#include "fleet/fleet_engine.hpp"
#include "radar/config.hpp"
#include "radar/frame.hpp"

namespace e2e {

using namespace blinkradar;
using Clock = std::chrono::steady_clock;

constexpr double kFramePeriodS = 0.040;  // 25 fps radar
constexpr double kDeadlineMs = 40.0;     // one frame period
/// A run whose generator overslept its own schedule by more than this
/// (at p99, or the highest percentile with ten sleeps beyond it) measured
/// the host, not the program, and is reported invalid.
constexpr double kMaxGeneratorLateMs = 10.0;
/// Most threads a run uses. On shared virtual machines the hypervisor
/// grants more than two vCPUs only intermittently: runs at four threads
/// on a 4-vCPU host were bimodal (throughput 38k or 68k fps, CPU per
/// frame swinging by a quarter), at two threads they were steady.
constexpr std::size_t kMaxThreads = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
/// Open loop, latency_p99_ms is the median of the p99s of consecutive
/// slices of a run's latency samples, one per this many seconds.
constexpr double kLatencyWindowS = 1.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Threads the run may occupy in total: pool workers plus the
    /// calling thread, which parallel_for also puts to work.
    std::size_t threads = 1;
    ThreadPool* pool = nullptr;  ///< threads - 1 workers (at least 1)
};

double seconds_between(Clock::time_point a, Clock::time_point b);
/// User + system CPU time of the whole process, all threads.
std::uint64_t process_cpu_ns();
double peak_rss_mb();
/// Linear-interpolation quantile of `v` (sorted in place); 0 if empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Engine shard count for a run on `threads` threads: one shard makes
/// parallel_for run inline on the caller (the 1-thread baseline).
std::size_t shards_for(std::size_t threads);

// ---------------------------------------------------------------- inputs

/// What a plain sequential BlinkRadarPipeline produces on a frame list:
/// the blink events and the frame index each was emitted at, so a
/// session that processed only a prefix can be checked against it.
struct Reference {
    std::vector<std::uint64_t> emit_at;
    std::vector<core::DetectedBlink> blinks;
    std::uint64_t frames = 0;
};

/// One simulated drive, encoded as a BRWF stream without a bye record
/// (streams end by closing their transport after any prefix).
struct Recording {
    radar::RadarConfig radar;
    radar::FrameSeries frames;
    std::vector<std::uint8_t> wire;
    std::size_t hello_end = 0;             ///< bytes before frame 0
    std::vector<std::size_t> frame_end;    ///< wire offset past frame k
    Reference ref;                         ///< over the decoded frames

    std::size_t prefix_bytes(std::size_t n_frames) const {
        return n_frames == 0 ? hello_end : frame_end[n_frames - 1];
    }
};

/// `n` recordings of `duration_s`, mixing road types, alertness and
/// body-movement rates; every draw comes from `rng`.
std::vector<Recording> make_recordings(std::size_t n, double duration_s,
                                       Rng& rng);

Reference reference_over(const radar::RadarConfig& radar,
                         const radar::FrameSeries& frames);
/// Every frame a WireDecoder yields from `bytes` pushed whole.
radar::FrameSeries decode_all(const std::vector<std::uint8_t>& bytes);

/// FNV-1a over `bytes`, continuing from `h`: the input fingerprint each
/// run prints, so a smoke test can see that the seed changed the inputs.
std::uint64_t fingerprint(const void* bytes, std::size_t n,
                          std::uint64_t h = 0xcbf29ce484222325ull);
/// The fingerprint of the recordings' wire bytes and `extra` values.
std::uint64_t fingerprint(const std::vector<Recording>& recs,
                          const std::vector<double>& extra);

/// True when `got` equals the reference's blinks emitted within the
/// first `frames` frames, bit for bit.
bool blinks_match(const Reference& ref, std::uint64_t frames,
                  const std::vector<core::DetectedBlink>& got);

// --------------------------------------------------------------- tracing

/// Span names: one per public call the benchmark makes into a layer.
enum class Span : std::size_t {
    kWrite,      ///< BytePipe::write (generator -> wire)
    kFeed,       ///< FleetEngine::feed (generator -> fleet)
    kPump,       ///< IngestFrontend::pump or FleetEngine::pump
    kScan,       ///< generator reads FleetEngine::stats for completions
    kPublish,    ///< publish_telemetry / SnapshotPublisher::publish
    kAggregate,  ///< FleetEngine::aggregate_into
    kCount_,
};

/// Per-name span totals (calls, wall, process CPU). Disabled tracers
/// read no clock at all, so the untraced run pays nothing.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {}
    bool on() const noexcept { return on_; }

    struct Totals {
        std::uint64_t calls = 0;
        std::uint64_t wall_ns = 0;
        std::uint64_t cpu_ns = 0;
    };
    const Totals& totals(Span s) const {
        return totals_[static_cast<std::size_t>(s)];
    }

    class Scope {
    public:
        Scope(Tracer& t, Span s);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
        Span s_;
        Clock::time_point wall0_{};
        std::uint64_t cpu0_ = 0;
    };

private:
    bool on_;
    Totals totals_[static_cast<std::size_t>(Span::kCount_)]{};
};

// --------------------------------------------------------------- results

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;  ///< frames sent
    std::uint64_t failed = 0;     ///< frames sent without a result
    std::vector<Metric> metrics;  ///< end-to-end or per-layer, by mode
    std::vector<std::string> errors;
    std::vector<std::string> report;  ///< human-readable lines
    std::string invalid;  ///< non-empty: the run measured the host
    std::uint64_t inputs = 0;  ///< fingerprint of the generated inputs
};

/// Loss accounting of one stream, checked from outside the program:
/// sent == results + queue drops + quarantined + refused + cold drops.
struct LossLedger {
    std::uint64_t sent = 0;
    std::uint64_t results = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t refused = 0;
    std::uint64_t cold_drops = 0;
    /// Frames the input itself damaged: sent minus what a whole-buffer
    /// decode of the same bytes yields. Losing these is correct.
    std::uint64_t expected_quarantined = 0;
    bool balanced() const {
        return sent == results + queue_drops + quarantined + refused +
                           cold_drops;
    }
    void add(const LossLedger& o);
};

/// In-situ layer measurements a workload hands to the ledger.
struct LayerSample {
    std::uint64_t frames = 0;     ///< results in the measured window
    std::uint64_t cpu_ns = 0;     ///< process CPU over the window
    std::uint64_t decoded = 0;    ///< frames through the wire decoder
    std::uint64_t pump_wall_ns = 0;    ///< IngestFrontend::pump wall
    std::uint64_t engine_wall_ns = 0;  ///< FleetEngine::pump wall
    double engine_cpu_ns = 0.0;        ///< FleetEngine::pump CPU
    std::uint64_t pumps = 0;           ///< IngestFrontend::pump calls
    std::uint64_t backlog_max = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t shed_transitions = 0;
    std::uint64_t admission_refused = 0;
    std::uint64_t quarantined_bytes = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t autosnapshots = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rehydrations = 0;
    std::uint64_t resident_max = 0;
    double skew_weighted = 0.0;  ///< sum of frames * (max/mean per slot)
    std::uint64_t sessions_drained = 0;
    std::uint64_t sessions_stolen = 0;
    std::uint64_t snapshot_nodes = 0;
    double aggregate_ns = 0.0;  ///< per aggregation cycle
    double publish_ns = 0.0;    ///< per publish (with its aggregation)
    double obs_cpu_ns = 0.0;    ///< telemetry CPU in the window
    double obs_in_pump_ns = 0.0;  ///< of which inside the pump (serial)
    double late_p99_ms = 0.0;
    Tracer::Totals spans[static_cast<std::size_t>(Span::kCount_)]{};

    /// Fold one FleetEngine::last_pump_stats() into skew/steal totals.
    void note_pump_stats(const std::vector<fleet::ShardStats>& slots);
    void take_spans(const Tracer& t);
};

/// Mirrors the engine's autosnapshot cadence from outside: per session,
/// frames since the last autosnapshot or rehydration.
struct SnapshotMirror {
    std::uint64_t since = 0;
    std::uint64_t rehydrations = 0;
    /// `processed` frames just completed; `rehydrations` the session's
    /// current count (a rehydration restarts the engine's cadence).
    std::uint64_t advance(std::uint64_t processed, std::uint64_t rehyd,
                          std::size_t interval);
};

/// Closed-loop capacity of a data path on one input set: median fps at
/// the full thread count and at one thread, passes alternated.
struct Capacity {
    double fps_full = 0.0;
    double fps_single = 0.0;
    double efficiency = 0.0;  ///< fps_full / (threads * fps_single)
    std::vector<std::string> errors;
};

/// The isolation pass: each inner layer's public API driven on the
/// workload's own recordings, then the ledger assembled from it, the
/// in-situ sample and the capacity probe. Appends every per-layer metric
/// to `out`.
void layer_metrics(const std::vector<Recording>& recs,
                   const LayerSample& in, double untraced_cpu_ns_per_frame,
                   const Capacity& cap, ThreadPool& pool, RunResult& out);

// ------------------------------------------------------------- workloads

RunResult run_live_gateway(const Options& opt);
RunResult run_replay_saturate(const Options& opt);
RunResult run_churn_evict(const Options& opt);

/// Per-stream correctness: the loss identity balances, nothing is left
/// queued, the decoder yielded exactly what a whole-buffer decode of the
/// same bytes yields, and the blink events equal the reference's for the
/// frames processed. Folds `loss` into `total` and appends any failure
/// to `errors`.
void check_stream(const std::string& what, const LossLedger& loss,
                  std::uint64_t decoded, std::uint64_t expect_decoded,
                  std::uint64_t still_queued,
                  const Reference& ref, std::uint64_t processed,
                  const std::vector<core::DetectedBlink>& blinks,
                  LossLedger& total, std::vector<std::string>& errors);

/// What one open-loop schedule measured.
struct OpenLoop {
    std::vector<double> latency_ms;  ///< due -> result visible, per frame
    std::vector<double> late_ms;     ///< generator wake-up lateness
    std::uint64_t sent = 0;          ///< frames due in the window
    std::uint64_t cpu_ns = 0;
    double wall_s = 0.0;
    LayerSample layers;
    LossLedger loss;  ///< whole streams, pre-roll included
    std::vector<std::string> errors;
};

/// The gateway's pump cadence. The front-end's per-tick knobs (deliver
/// budget, stall ticks) assume a timer-driven tick; at 10 ms a 512-stream
/// tick carries ~128 frames, half the default deliver budget.
constexpr double kTickS = 0.010;

/// Drives an open-loop schedule from one thread. The generator sleeps
/// until the next tick, sends every frame due by then (stream i's frame
/// k is due at due[i][k] seconds from the start), pumps once, and takes
/// each frame's latency from its due time to the moment its result was
/// visible. A pump that overruns its tick starts the next one at once,
/// so stalls show as latency of the frames due behind them.
/// `send(stream, k)` returns false when the transport refused the
/// frame; `done_of(stream)` counts the stream's scheduled frames that
/// have a result and those lost on the way (lost frames are taken to be
/// the oldest: they get no latency sample and count as deadline misses);
/// `after_pump` runs after every pump.
struct Outcome {
    std::uint64_t results = 0;
    std::uint64_t lost = 0;
};
using SendFn = std::function<bool(std::uint32_t, std::uint64_t)>;
using DoneFn = std::function<Outcome(std::uint32_t)>;
using Hook = std::function<void(std::uint64_t tick)>;
void drive_schedule(const std::vector<std::vector<double>>& due,
                    double seconds, Tracer& tracer, const SendFn& send,
                    const Hook& pump, const DoneFn& done_of,
                    const Hook& after_pump, OpenLoop& out);

/// A BRWF byte stream replayed closed-loop, with what it must produce.
struct WireStream {
    const std::vector<std::uint8_t>* bytes = nullptr;
    const Reference* ref = nullptr;
    std::uint64_t sent = 0;            ///< frames encoded into `bytes`
    std::uint64_t expect_decoded = 0;  ///< frames a whole-buffer decode yields
};

/// One closed-loop replay of `streams` from MemoryByteSources through
/// IngestFrontend and FleetEngine on `threads` threads.
struct IngestPass {
    double wall_s = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t cpu_ns = 0;
    std::vector<std::pair<double, std::uint64_t>> pumps;  ///< (ms, frames)
    LossLedger loss;
    LayerSample layers;
    std::vector<std::string> errors;
};
IngestPass ingest_pass(const std::vector<WireStream>& streams,
                       const Options& opt, std::size_t threads,
                       bool telemetry, Tracer& tracer);
/// Alternates full-thread and 1-thread ingest passes (three pairs).
Capacity ingest_capacity(const std::vector<WireStream>& streams,
                         const Options& opt, bool telemetry);
/// The same for FleetEngine fed directly: every frame fed, one pump.
Capacity fleet_capacity(const std::vector<Recording>& recs,
                        const Options& opt);

/// Appends the end-to-end metrics (and their report lines) in the order
/// BENCHMARK.json lists them. `latency_ms` is in time order;
/// latency_p99_ms is the median p99 of `p99_windows` equal slices of it.
void add_e2e_metrics(RunResult& res, const std::vector<double>& setup_s,
                     std::vector<double> latency_ms, std::uint64_t window_sent,
                     double throughput_fps, double cpu_us_per_frame,
                     const LossLedger& loss, std::size_t p99_windows);

/// Shared tail of the open-loop workloads: errors, the generator guard,
/// then end-to-end metrics (untraced) or the ledger (traced; `cap` is
/// the capacity probe, run in traced mode only).
void finish_open_loop(const Options& opt, const std::vector<double>& setup_s,
                      OpenLoop& untraced, OpenLoop* traced,
                      const Capacity& cap, const std::vector<Recording>& recs,
                      RunResult& res);

/// Set-up repeated kSetupReps times (setup_s is the median); the
/// schedule runs after the last set-up, and with tracing on an untraced
/// schedule runs after the one before it as the overhead reference.
template <typename W, typename SetUp, typename Measure, typename TearDown,
          typename Probe>
RunResult run_open_loop(const Options& opt, SetUp set_up, Measure measure,
                        TearDown tear_down, Probe probe) {
    RunResult res;
    std::vector<double> setup_s;
    std::unique_ptr<W> w;
    OpenLoop untraced;
    OpenLoop traced;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        w.reset();
        const auto a = Clock::now();
        w = set_up(opt);
        setup_s.push_back(seconds_between(a, Clock::now()));
        const bool plain = rep == kSetupReps - (opt.trace ? 2 : 1);
        const bool with_spans = opt.trace && rep == kSetupReps - 1;
        if (!plain && !with_spans) continue;
        Tracer tracer(with_spans);
        OpenLoop& o = with_spans ? traced : untraced;
        o = measure(*w, opt, tracer);
        if (o.errors.empty()) tear_down(*w, o);
    }
    Capacity cap;
    if (opt.trace) cap = probe(*w);
    res.inputs = w->inputs;
    finish_open_loop(opt, setup_s, untraced, opt.trace ? &traced : nullptr,
                     cap, w->recs, res);
    return res;
}

}  // namespace e2e
