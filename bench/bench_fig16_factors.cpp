// Fig. 16 reproduction: other factors.
//  (a) glasses: myopia ~94 %, sunglasses ~93 % blink accuracy.
//  (b) road types (4 classes): smooth best, bumpy worst.
//  (c) eye size S1..S6: >=90 % even at the smallest (3.5 x 0.8 cm).
//  (d) drowsiness-detection window 1..4 min: best at 1-2 min.
//
// Each table row builds one scenario per driver and scores the whole
// batch through the shared thread pool (benchutil span helpers).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vehicle/road.hpp"

using namespace blinkradar;

int main() {
    const auto drivers = benchutil::participants(6);

    // One scenario per driver with `mutate` applied, for batch scoring.
    auto batch = [&](std::uint64_t base_seed, std::uint64_t stride,
                     auto mutate) {
        std::vector<sim::ScenarioConfig> scenarios;
        scenarios.reserve(drivers.size());
        for (std::size_t i = 0; i < drivers.size(); ++i) {
            sim::ScenarioConfig sc =
                benchutil::reference_scenario(drivers[i], base_seed + stride * i);
            mutate(sc);
            scenarios.push_back(sc);
        }
        return scenarios;
    };

    eval::banner(std::cout, "Fig. 16a: impact of glasses");
    {
        eval::AsciiTable table(
            {"eyewear", "blink acc (%)", "drowsy acc (%)", "paper blink (%)"});
        const struct {
            physio::Glasses g;
            const char* name;
            const char* paper;
        } rows[] = {{physio::Glasses::kNone, "none", "~95.5"},
                    {physio::Glasses::kMyopia, "myopia glasses", "94"},
                    {physio::Glasses::kSunglasses, "sunglasses", "93"}};
        eval::DrowsyExperimentOptions options;
        options.train_minutes_per_class = 3.0;
        options.test_minutes_per_class = 4.0;
        for (const auto& row : rows) {
            const auto scenarios = batch(900, 7, [&](sim::ScenarioConfig& sc) {
                sc.driver.glasses = row.g;
            });
            const double blink = benchutil::mean_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios));
            const double drowsy = benchutil::mean_drowsy_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios), options);
            table.add_row({row.name, eval::fmt(100.0 * blink, 1),
                           eval::fmt(100.0 * drowsy, 1), row.paper});
        }
        table.print(std::cout);
    }

    eval::banner(std::cout, "Fig. 16b: impact of road type");
    {
        eval::AsciiTable table(
            {"road class", "example", "blink acc (%)", "drowsy acc (%)"});
        const struct {
            vehicle::RoadType road;
            const char* cls;
        } rows[] = {
            {vehicle::RoadType::kSmoothHighway, "1 smooth"},
            {vehicle::RoadType::kBumpyRoad, "2 bumpy"},
            {vehicle::RoadType::kUphill, "3 slope"},
            {vehicle::RoadType::kRoundabout, "4 maneuver"},
        };
        eval::DrowsyExperimentOptions options;
        options.train_minutes_per_class = 3.0;
        options.test_minutes_per_class = 4.0;
        for (const auto& row : rows) {
            const auto scenarios = batch(1100, 11, [&](sim::ScenarioConfig& sc) {
                sc.road = row.road;
            });
            const double blink = benchutil::mean_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios));
            const double drowsy = benchutil::mean_drowsy_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios), options);
            table.add_row({row.cls, vehicle::to_string(row.road),
                           eval::fmt(100.0 * blink, 1),
                           eval::fmt(100.0 * drowsy, 1)});
        }
        table.print(std::cout);
        std::printf("paper shape: smooth best; bumpy and heavy maneuvers "
                    "degrade accuracy.\n");
    }

    eval::banner(std::cout, "Fig. 16c: impact of eye size");
    {
        eval::AsciiTable table({"subject", "eye (cm x cm)", "blink acc (%)"});
        // S1..S6 span the recruited pool down to the paper's smallest
        // tested eye (3.5 x 0.8 cm).
        const double widths[] = {0.055, 0.050, 0.047, 0.043, 0.039, 0.035};
        const double heights[] = {0.014, 0.013, 0.012, 0.011, 0.009, 0.008};
        for (int s = 0; s < 6; ++s) {
            const auto scenarios = batch(1300, 13, [&](sim::ScenarioConfig& sc) {
                sc.driver.eye_size.width_m = widths[s];
                sc.driver.eye_size.height_m = heights[s];
            });
            const double blink = benchutil::mean_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios));
            std::string label = "S";
            label += std::to_string(s + 1);
            table.add_row({label,
                           eval::fmt(widths[s] * 100, 1) + " x " +
                               eval::fmt(heights[s] * 100, 1),
                           eval::fmt(100.0 * blink, 1)});
        }
        table.print(std::cout);
        std::printf("paper: accuracy falls with eye size but stays >=90%% "
                    "even at S6 (3.5 x 0.8 cm).\n");
    }

    eval::banner(std::cout, "Fig. 16d: impact of detection-time window");
    {
        eval::AsciiTable table({"window (min)", "drowsy acc (%)"});
        for (const double wmin : {1.0, 1.5, 2.0, 3.0, 4.0}) {
            const auto scenarios =
                batch(1500, 17, [](sim::ScenarioConfig&) {});
            eval::DrowsyExperimentOptions options;
            options.window_s = wmin * 60.0;
            options.train_minutes_per_class = std::max(3.0, 2.0 * wmin);
            options.test_minutes_per_class = std::max(4.0, 3.0 * wmin);
            const double drowsy = benchutil::mean_drowsy_accuracy(
                std::span<const sim::ScenarioConfig>(scenarios), options);
            table.add_row({eval::fmt(wmin, 1), eval::fmt(100.0 * drowsy, 1)});
        }
        table.print(std::cout);
        std::printf("paper: best accuracy at 1-2 min windows; longer windows "
                    "delay detection without improving it much.\n");
    }
    return 0;
}
