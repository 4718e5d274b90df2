#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/bin_selection.hpp"

namespace blinkradar::core {
namespace {

radar::RadarConfig config() { return radar::RadarConfig{}; }

/// Build a synthetic slow-time window: an "eye" bin tracing a thin arc, a
/// "chest" bin doing full rotations with radius wobble, and noise
/// elsewhere.
std::vector<dsp::ComplexSignal> make_window(std::size_t frames,
                                            std::size_t n_bins,
                                            std::size_t eye_bin,
                                            std::size_t chest_bin,
                                            double noise, Rng& rng) {
    std::vector<dsp::ComplexSignal> window(frames,
                                           dsp::ComplexSignal(n_bins));
    for (std::size_t t = 0; t < frames; ++t) {
        for (std::size_t b = 0; b < n_bins; ++b)
            window[t][b] = dsp::Complex(rng.normal(0, noise),
                                        rng.normal(0, noise));
        // Eye/face: radius-1 arc sweeping 0.6 rad over the window.
        const double arc = 0.6 * static_cast<double>(t) /
                           static_cast<double>(frames);
        window[t][eye_bin] +=
            dsp::Complex(std::cos(arc), std::sin(arc));
        // Chest: three full turns with 10% radius wobble.
        const double rot = 3.0 * constants::kTwoPi *
                           static_cast<double>(t) /
                           static_cast<double>(frames);
        const double r = 0.6 * (1.0 + 0.1 * std::sin(5.0 * rot));
        window[t][chest_bin] +=
            dsp::Complex(r * std::cos(rot), r * std::sin(rot));
    }
    return window;
}

/// The same window as I/Q planes plus the pointer view select_soa and
/// score_bin_soa read.
struct PlaneWindow {
    explicit PlaneWindow(const std::vector<dsp::ComplexSignal>& aos) {
        frames.resize(aos.size());
        for (std::size_t t = 0; t < aos.size(); ++t) {
            frames[t].resize(aos[t].size());
            dsp::active_kernels().deinterleave(aos[t].data(), aos[t].size(),
                                               frames[t].i.data(),
                                               frames[t].q.data());
            view.push_back(&frames[t]);
        }
    }
    std::vector<dsp::IqPlanes> frames;
    std::vector<const dsp::IqPlanes*> view;
};

/// Select over `window` with its batch per-bin variances.
std::optional<BinSelection> select_in(
    const BinSelector& sel, const std::vector<dsp::ComplexSignal>& window) {
    const PlaneWindow planes(window);
    BinSelector::SelectScratch scratch;
    return sel.select_soa(planes.view, sel.bin_variances(window), scratch);
}

std::optional<BinSelection> score_bin(
    const BinSelector& sel, const std::vector<dsp::ComplexSignal>& window,
    std::size_t bin) {
    const PlaneWindow planes(window);
    dsp::ComplexSignal column;
    return sel.score_bin_soa(planes.view, bin, column);
}

TEST(BinSelector, PicksTheArcBinNotTheRotatingChest) {
    Rng rng(1);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto choice = select_in(sel, window);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->bin, 40u);
    EXPECT_TRUE(choice->fit.ok);
}

TEST(BinSelector, MaxPowerBaselinePicksTheStrongestBin) {
    Rng rng(2);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    PipelineConfig pc;
    pc.selection_mode = BinSelectionMode::kMaxPower;
    const BinSelector sel(config(), pc);
    const auto choice = select_in(sel, window);
    ASSERT_TRUE(choice.has_value());
    // The eye arc (radius 1) carries more power than the chest (0.6).
    EXPECT_EQ(choice->bin, 40u);
}

TEST(BinSelector, NoSelectionOnPureNoise) {
    Rng rng(3);
    std::vector<dsp::ComplexSignal> window(60, dsp::ComplexSignal(151));
    for (auto& f : window)
        for (auto& v : f)
            v = dsp::Complex(rng.normal(0, 0.002), rng.normal(0, 0.002));
    const BinSelector sel(config(), PipelineConfig{});
    EXPECT_FALSE(select_in(sel, window).has_value());
}

TEST(BinSelector, RespectsRangeGate) {
    Rng rng(4);
    // Arc sits below the minimum search range: must not be selected.
    const auto window = make_window(100, 151, /*eye_bin=*/4, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto choice = select_in(sel, window);
    // Either nothing, or not the gated-out bin.
    if (choice) {
        EXPECT_NE(choice->bin, 4u);
    }
}

TEST(BinSelector, BinVariancesPeakAtDynamicBins) {
    Rng rng(5);
    const auto window = make_window(80, 151, 40, 62, 0.001, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto variances = sel.bin_variances(window);
    ASSERT_EQ(variances.size(), 151u);
    EXPECT_GT(variances[40], 100.0 * variances[100]);
    EXPECT_GT(variances[62], 100.0 * variances[100]);
}

TEST(BinSelector, ScoreBinGatesRotations) {
    Rng rng(6);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    EXPECT_TRUE(score_bin(sel, window, 40).has_value());
    // The multi-turn chest bin fails the arc gate.
    EXPECT_FALSE(score_bin(sel, window, 62).has_value());
}

TEST(BinSelector, ScoreBinRejectsNoiseBin) {
    Rng rng(7);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    // A pure-noise bin: either the fit degenerates or the radius-
    // plausibility gate rejects it.
    EXPECT_FALSE(score_bin(sel, window, 100).has_value());
}

TEST(RollingBinVariance, MatchesBatchVariancesOverSlidingWindow) {
    // The incremental tracker must agree with the batch computation
    // (BinSelector::bin_variances) to 1e-9 at every step of a sliding
    // window with interleaved pushes and evictions.
    Rng rng(8);
    const std::size_t n_bins = 151;
    const std::size_t total_frames = 120;
    const std::size_t window_len = 40;
    const auto frames = make_window(total_frames, n_bins, 40, 62, 0.02, rng);

    const BinSelector sel(config(), PipelineConfig{});
    RollingBinVariance rolling(n_bins);
    std::vector<double> got;
    for (std::size_t t = 0; t < total_frames; ++t) {
        if (rolling.count() == window_len) rolling.evict(frames[t - window_len]);
        rolling.push(frames[t]);
        ASSERT_EQ(rolling.count(), std::min(t + 1, window_len));
        if (t + 1 < 8) continue;  // batch path needs a few frames
        const std::size_t first = t + 1 - rolling.count();
        const std::vector<dsp::ComplexSignal> window(
            frames.begin() + static_cast<std::ptrdiff_t>(first),
            frames.begin() + static_cast<std::ptrdiff_t>(t + 1));
        const auto batch = sel.bin_variances(window);
        rolling.variances_into(got);
        ASSERT_EQ(got.size(), batch.size());
        for (std::size_t b = 0; b < n_bins; ++b) {
            EXPECT_NEAR(got[b], batch[b], 1e-9)
                << "frame " << t << ", bin " << b;
            EXPECT_NEAR(rolling.variance(b), batch[b], 1e-9);
        }
    }
}

TEST(RollingBinVariance, ClearKeepsLayoutAndZeroesState) {
    RollingBinVariance rolling(8);
    dsp::ComplexSignal frame(8, dsp::Complex(1.0, -2.0));
    rolling.push(frame);
    rolling.push(frame);
    EXPECT_EQ(rolling.count(), 2u);
    rolling.clear();
    EXPECT_EQ(rolling.count(), 0u);
    EXPECT_EQ(rolling.n_bins(), 8u);
    EXPECT_EQ(rolling.variance(3), 0.0);
}

TEST(RollingBinVariance, SelectWithPrecomputedVariancesMatchesPlainSelect) {
    // Selecting with the rolling tracker's variances (what the pipeline
    // does) picks the same bin, with the same score, as selecting with
    // the batch variances.
    Rng rng(9);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    RollingBinVariance rolling(151);
    for (const dsp::ComplexSignal& f : window) rolling.push(f);
    std::vector<double> variances;
    rolling.variances_into(variances, dsp::active_kernels());
    const PlaneWindow planes(window);
    BinSelector::SelectScratch scratch;
    const auto plain = select_in(sel, window);
    const auto precomputed = sel.select_soa(planes.view, variances, scratch);
    ASSERT_TRUE(plain.has_value());
    ASSERT_TRUE(precomputed.has_value());
    EXPECT_EQ(plain->bin, precomputed->bin);
    EXPECT_EQ(plain->score, precomputed->score);
}

TEST(BinSelector, RejectsTinyWindows) {
    const BinSelector sel(config(), PipelineConfig{});
    std::vector<dsp::IqPlanes> frames(3);
    for (dsp::IqPlanes& f : frames) f.resize(151);
    const std::vector<const dsp::IqPlanes*> view{&frames[0], &frames[1],
                                                 &frames[2]};
    const std::vector<double> variances(151, 0.0);
    BinSelector::SelectScratch scratch;
    EXPECT_THROW(sel.select_soa(view, variances, scratch),
                 blinkradar::ContractViolation);
}

TEST(BinSelector, RejectsInvertedRangeGate) {
    PipelineConfig pc;
    pc.selection_min_range_m = 1.0;
    pc.selection_max_range_m = 0.2;
    EXPECT_THROW(BinSelector(config(), pc), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::core
