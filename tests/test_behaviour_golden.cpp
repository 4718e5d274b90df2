// Exact behaviour goldens for the default pipeline.
//
// Every scenario below is seed-deterministic, so its outcome is a fixed
// bit pattern. Each one is reduced to two CRC-32s (state::crc32) and
// compared against a committed constant:
//   - outcome: the bit patterns of every DetectedBlink, the restart
//     count and the final selected bin (plus, where the scenario pins
//     it, a flight dump);
//   - snapshot: the save_state bytes at one fixed mid-run frame (section
//     CRC slots blanked, see content_crc).
// A refactor that claims to change nothing must leave every constant as
// it is. A deliberate behaviour change updates them together with a
// regenerated EXPERIMENTS.md; a mismatch prints the value actually seen.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "core/postmortem.hpp"
#include "obs/flight_recorder.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {
namespace {

sim::ScenarioConfig reference_scenario(std::uint64_t seed,
                                       Seconds duration) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void append_f64(std::vector<std::uint8_t>& out, double v) {
    append_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// CRC-32 of a snapshot container with every section CRC slot zeroed.
/// A CRC over bytes that already embed per-section CRCs would depend only
/// on the section lengths (each section followed by its own CRC leaves a
/// content-independent register state), so the slots are blanked first.
std::uint32_t content_crc(std::vector<std::uint8_t> bytes) {
    constexpr std::size_t kHeader = 8;         // magic, version, flags
    constexpr std::size_t kSectionHeader = 12;  // tag, version, len
    std::size_t at = kHeader;
    while (at + kSectionHeader <= bytes.size()) {
        std::uint32_t len = 0;
        for (std::size_t b = 0; b < 4; ++b)
            len |= static_cast<std::uint32_t>(bytes[at + 8 + b]) << (8 * b);
        at += kSectionHeader + len;
        EXPECT_LE(at + 4, bytes.size());
        if (at + 4 > bytes.size()) break;
        for (std::size_t b = 0; b < 4; ++b) bytes[at + b] = 0;
        at += 4;
    }
    EXPECT_EQ(at, bytes.size());
    return state::crc32(bytes);
}

struct GoldenRun {
    std::uint32_t outcome_crc = 0;
    std::uint32_t snapshot_crc = 0;
    std::size_t blinks = 0;
    std::size_t restarts = 0;
    std::optional<std::size_t> selected_bin;
};

std::vector<std::uint8_t> outcome_bytes(const BlinkRadarPipeline& pipe) {
    std::vector<std::uint8_t> bytes;
    for (const DetectedBlink& b : pipe.blinks()) {
        append_f64(bytes, b.peak_s);
        append_f64(bytes, b.duration_s);
        append_f64(bytes, b.magnitude);
        append_f64(bytes, b.strength);
    }
    append_u64(bytes, pipe.restarts());
    append_u64(bytes, pipe.selected_bin()
                          ? static_cast<std::uint64_t>(*pipe.selected_bin())
                          : ~std::uint64_t{0});
    return bytes;
}

/// Feed `frames` through `pipe`, snapshotting right after frame
/// `snapshot_at` (0-based).
GoldenRun run(BlinkRadarPipeline& pipe, const radar::FrameSeries& frames,
              std::size_t snapshot_at) {
    EXPECT_LT(snapshot_at, frames.size());
    GoldenRun g;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        pipe.process(frames[i]);
        if (i == snapshot_at) {
            state::StateWriter writer;
            pipe.save_state(writer);
            g.snapshot_crc = content_crc(writer.finish());
        }
    }
    g.outcome_crc = state::crc32(outcome_bytes(pipe));
    g.blinks = pipe.blinks().size();
    g.restarts = pipe.restarts();
    g.selected_bin = pipe.selected_bin();
    return g;
}

GoldenRun run_session(const sim::SimulatedSession& s,
                      const PipelineConfig& config,
                      std::size_t snapshot_at) {
    BlinkRadarPipeline pipe(s.radar, config);
    return run(pipe, s.frames, snapshot_at);
}

void expect_golden(const GoldenRun& g, std::uint32_t outcome,
                   std::uint32_t snapshot) {
    EXPECT_EQ(g.outcome_crc, outcome)
        << "outcome golden moved: actual 0x" << std::hex << g.outcome_crc
        << std::dec << " (" << g.blinks << " blinks, " << g.restarts
        << " restarts)";
    EXPECT_EQ(g.snapshot_crc, snapshot)
        << "snapshot golden moved: actual 0x" << std::hex << g.snapshot_crc;
}

TEST(BehaviourGolden, ArcDistance) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(21, 30.0));
    const GoldenRun g = run_session(s, PipelineConfig{}, 500);
    EXPECT_GT(g.blinks, 0u);
    ASSERT_TRUE(g.selected_bin.has_value());
    expect_golden(g, 0xf6cfa15bu, 0x7971315au);
}

TEST(BehaviourGolden, AmplitudeWaveform) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(22, 20.0));
    PipelineConfig config;
    config.waveform_mode = WaveformMode::kAmplitude;
    const GoldenRun g = run_session(s, config, 300);
    ASSERT_TRUE(g.selected_bin.has_value());
    expect_golden(g, 0xa0246df8u, 0xf3a7ff9fu);
}

TEST(BehaviourGolden, PhaseWaveform) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(23, 20.0));
    PipelineConfig config;
    config.waveform_mode = WaveformMode::kPhase;
    const GoldenRun g = run_session(s, config, 300);
    ASSERT_TRUE(g.selected_bin.has_value());
    expect_golden(g, 0x0db644e8u, 0x17709653u);
}

TEST(BehaviourGolden, MaxPowerSelection) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(24, 20.0));
    PipelineConfig config;
    config.selection_mode = BinSelectionMode::kMaxPower;
    const GoldenRun g = run_session(s, config, 300);
    ASSERT_TRUE(g.selected_bin.has_value());
    expect_golden(g, 0x4ee2c73eu, 0xec5368b0u);
}

TEST(BehaviourGolden, PostureShiftRestart) {
    sim::ScenarioConfig sc = reference_scenario(25, 40.0);
    sc.head_motion.shift_rate_per_min = 3.0;
    sc.head_motion.shift_amplitude_m = 0.08;
    const sim::SimulatedSession s = simulate_session(sc);
    const GoldenRun g = run_session(s, PipelineConfig{}, 600);
    EXPECT_GE(g.restarts, 1u);
    expect_golden(g, 0x26b29756u, 0x9a3a5893u);
}

TEST(BehaviourGolden, FaultStream) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(26, 30.0));
    radar::FaultInjectorConfig faults;
    faults.drop_rate = 0.06;  // bridged gaps
    faults.nan_rate = 0.05;   // repaired samples
    faults.truncate_rate = 0.03;  // quarantined frames
    faults.timestamp_jitter_std_s = 0.2 * s.radar.frame_period_s;
    radar::FaultInjector injector(faults, 4242);
    const radar::FrameSeries impaired = injector.apply(s.frames);

    BlinkRadarPipeline pipe(s.radar);
    const GoldenRun g = run(pipe, impaired, 400);
    const GuardStats& gs = pipe.guard_stats();
    EXPECT_GT(gs.samples_repaired, 0u);
    EXPECT_GT(gs.frames_bridged, 0u);
    EXPECT_GT(gs.frames_quarantined, 0u);
    expect_golden(g, 0x26c0b0a3u, 0x46bbda50u);
}

TEST(BehaviourGolden, FlightRecorderAttached) {
    // The recorder's profile tap and self-checkpoints run on this pipeline;
    // the outcome CRC also covers the whole flight dump (FRCF configs,
    // raw/tap/profile rings and checkpoints), pinning its bytes too.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(27, 30.0));
    obs::FlightRecorderConfig rc;
    rc.checkpoint_interval_frames = 128;
    obs::FlightRecorder recorder(rc);
    const PipelineConfig config;
    BlinkRadarPipeline pipe(s.radar, config, nullptr, nullptr, &recorder);
    GoldenRun g = run(pipe, s.frames, 500);
    ASSERT_TRUE(g.selected_bin.has_value());

    std::vector<std::uint8_t> bytes = outcome_bytes(pipe);
    const std::uint32_t dump_crc = content_crc(
        make_flight_dump(recorder, s.radar, pipe.config(), "golden"));
    for (int b = 0; b < 4; ++b)
        bytes.push_back(static_cast<std::uint8_t>(dump_crc >> (8 * b)));
    g.outcome_crc = state::crc32(bytes);
    expect_golden(g, 0x015fa975u, 0x5535263fu);
}

}  // namespace
}  // namespace blinkradar::core
