#include "physio/driver_profile.hpp"

#include "common/contracts.hpp"

namespace blinkradar::physio {

std::vector<DriverProfile> table1_participants() {
    // Table I of the paper lists per-minute blink counts for participants
    // (columns labelled 1, 2, 4, 5, 6, 7, 8) at 10:00 am (alert) and
    // 10:00 pm (drowsy).
    struct Row {
        const char* id;
        double awake;
        double drowsy;
    };
    constexpr Row rows[] = {
        {"P1", 20.0, 25.0}, {"P2", 21.0, 26.0}, {"P4", 19.0, 30.0},
        {"P5", 20.0, 25.0}, {"P6", 18.0, 26.0}, {"P7", 22.0, 24.0},
        {"P8", 21.0, 26.0},
    };
    std::vector<DriverProfile> out;
    for (const Row& r : rows) {
        DriverProfile p;
        p.id = r.id;
        p.awake_blink_rate_per_min = r.awake;
        p.drowsy_blink_rate_per_min = r.drowsy;
        out.push_back(p);
    }
    return out;
}

std::vector<DriverProfile> sample_participants(std::size_t n, Rng& rng) {
    BR_EXPECTS(n >= 1);
    std::vector<DriverProfile> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DriverProfile p;
        p.id = "P";
        p.id += std::to_string(i + 1);
        // Alert rates cluster around 18-22/min, drowsy around 24-30/min
        // (Table I); keep a guaranteed gap so the states are separable,
        // as the paper's own data shows.
        p.awake_blink_rate_per_min = rng.uniform(17.0, 23.0);
        p.drowsy_blink_rate_per_min =
            p.awake_blink_rate_per_min + rng.uniform(4.0, 9.0);
        // Eye sizes spanning the paper's range down to 3.5 x 0.8 cm.
        p.eye_size.width_m = rng.uniform(0.035, 0.055);
        p.eye_size.height_m = rng.uniform(0.008, 0.014);
        p.respiration.rate_hz = rng.uniform(0.2, 0.32);
        p.respiration.chest_amplitude_m = rng.uniform(0.03, 0.05);
        p.respiration.head_amplitude_m = rng.uniform(0.001, 0.002);
        p.heartbeat.rate_hz = rng.uniform(0.95, 1.4);
        p.heartbeat.head_amplitude_m = rng.uniform(0.0008, 0.0013);
        out.push_back(p);
    }
    return out;
}

}  // namespace blinkradar::physio
