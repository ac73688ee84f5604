//! Regenerates Table 2: median round-trip message latency for the Direct
//! HTTP, Kafka Only, KAR Actor and KAR Actor (no cache) configurations across
//! the ClusterDev, ClusterProd and Managed deployment profiles.
//!
//! Usage: `cargo run --release -p kar-bench --bin table2_latency [iterations]`
//! (default: 200 round trips per cell; the paper uses 10,000).

use kar_bench::latency::{measure_profile, paper_reference, LatencyConfig};
use kar_bench::report::millis;
use kar_types::DeploymentProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iterations = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(200);
    let config = LatencyConfig {
        iterations,
        payload_bytes: 20,
    };
    println!("# Table 2: median round trip message latency in milliseconds ({iterations} iterations per cell)");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>18}",
        "", "Direct HTTP", "Kafka Only", "KAR Actor", "KAR Actor (no cache)"
    );
    for profile in DeploymentProfile::ALL {
        eprintln!("measuring {profile}...");
        let row = measure_profile(profile, &config);
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>18}",
            profile.name(),
            millis(row.direct_http),
            millis(row.kafka_only),
            millis(row.kar_actor),
            millis(row.kar_actor_no_cache),
        );
        let reference = paper_reference(profile);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>18.2}   (paper)",
            "", reference[0], reference[1], reference[2], reference[3]
        );
    }
}
