#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "physio/head_motion.hpp"

namespace blinkradar::physio {
namespace {

constexpr double kFs = 100.0;

TEST(HeadMotion, DriftStdNearConfiguredSigma) {
    HeadMotionParams params;
    params.drift_sigma_m = 0.002;
    params.shift_rate_per_min = 0.0;
    const HeadMotionModel m(params, 600.0, kFs, Rng(1));
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (double t = 0.0; t < 600.0; t += 0.1) {
        const double d = m.displacement(t);
        sum += d;
        sq += d * d;
        ++n;
    }
    const double mean = sum / static_cast<double>(n);
    const double std = std::sqrt(sq / static_cast<double>(n) - mean * mean);
    // OU stationary std should be within a factor of the target.
    EXPECT_GT(std, 0.0008);
    EXPECT_LT(std, 0.004);
}

TEST(HeadMotion, ZeroDriftSigmaIsFlatWithoutShifts) {
    HeadMotionParams params;
    params.drift_sigma_m = 0.0;
    params.shift_rate_per_min = 0.0;
    const HeadMotionModel m(params, 30.0, kFs, Rng(2));
    for (double t = 0.0; t < 30.0; t += 0.2)
        EXPECT_DOUBLE_EQ(m.displacement(t), 0.0);
}

TEST(HeadMotion, PostureShiftsArePoissonGenerated) {
    HeadMotionParams params;
    params.shift_rate_per_min = 2.0;
    const HeadMotionModel m(params, 600.0, kFs, Rng(3));
    // Expect roughly 20 shifts in 10 minutes.
    EXPECT_GT(m.shifts().size(), 10u);
    EXPECT_LT(m.shifts().size(), 35u);
    // Shifts are time-ordered and within the session.
    for (std::size_t i = 0; i < m.shifts().size(); ++i) {
        EXPECT_GE(m.shifts()[i].start_s, 0.0);
        EXPECT_LT(m.shifts()[i].start_s, 600.0);
        if (i > 0) {
            EXPECT_GT(m.shifts()[i].start_s, m.shifts()[i - 1].start_s);
        }
    }
}

TEST(HeadMotion, ShiftChangesDisplacementByItsDelta) {
    HeadMotionParams params;
    params.drift_sigma_m = 0.0;
    params.shift_rate_per_min = 0.5;
    const HeadMotionModel m(params, 300.0, kFs, Rng(4));
    ASSERT_FALSE(m.shifts().empty());
    const PostureShift& s = m.shifts().front();
    const double before = m.displacement(s.start_s - 0.1);
    const double after = m.displacement(s.start_s + s.duration_s + 0.1);
    EXPECT_NEAR(after - before, s.delta_m, 1e-9);
}

TEST(HeadMotion, ShiftIsSmoothNotInstant) {
    HeadMotionParams params;
    params.drift_sigma_m = 0.0;
    params.shift_rate_per_min = 0.5;
    params.shift_duration_s = 1.0;
    const HeadMotionModel m(params, 300.0, kFs, Rng(5));
    ASSERT_FALSE(m.shifts().empty());
    const PostureShift& s = m.shifts().front();
    // Mid-shift displacement is strictly between endpoints.
    const double mid = m.displacement(s.start_s + 0.5);
    const double before = m.displacement(s.start_s - 0.01);
    EXPECT_NEAR(mid - before, s.delta_m / 2.0, std::abs(s.delta_m) * 0.05);
}

TEST(HeadMotion, DisplacementStaysMillimetric) {
    const HeadMotionParams params;  // defaults
    const HeadMotionModel m(params, 120.0, kFs, Rng(6));
    for (double t = 0.0; t < 120.0; t += 0.1)
        EXPECT_LT(std::abs(m.displacement(t)), 0.15);
}

TEST(HeadMotion, InvalidParamsThrow) {
    HeadMotionParams params;
    params.drift_timescale_s = 0.0;
    EXPECT_THROW(HeadMotionModel(params, 10.0, kFs, Rng(1)),
                 blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::physio
