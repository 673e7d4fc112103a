//! EXP-F4 / EXP-SREC — regenerates **Fig. 4** (scene reconstruction
//! quality) and the §V.03 finding that the kernel is memory-bound:
//! irregular point-cloud accesses dominate, with the cache simulator
//! standing in for zsim's memory-stall measurement.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_srec
//! ```

use rtr_archsim::MemorySim;
use rtr_bench::cli_or_exit;
use rtr_geom::{Point3, RigidTransform};
use rtr_harness::{Args, Profiler, Table};
use rtr_perception::{Icp, IcpConfig};
use rtr_sim::{scene, SimRng};
use rtr_trace::NullTrace;

fn main() {
    let args = cli_or_exit("exp_srec", Args::parse_env());
    let threads = cli_or_exit("exp_srec", args.get_usize("threads", 0));
    println!("EXP-F4: ICP scene reconstruction of the synthetic living room\n");
    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(60_000, &mut rng);
    let camera_motion = RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &camera_motion, 0.5, 0.002, &mut rng);
    println!(
        "scans: {} and {} points from cameras displaced by 6 cm / 0.04 rad",
        scan1.len(),
        scan2.len()
    );

    // Wall-clock characterization run.
    let mut profiler = Profiler::timed();
    let result = Icp::new(IcpConfig {
        threads,
        ..Default::default()
    })
    .align(&scan2, &scan1, &mut profiler, &mut NullTrace);
    profiler.freeze_total();
    println!(
        "\nreconstruction: mean correspondence error {:.4} m -> {:.4} m in {} iterations",
        result.error_before, result.error_after, result.iterations
    );
    let mut regions = Table::new(&["region", "share"]);
    for region in profiler.report() {
        regions.row_owned(vec![
            region.name.clone(),
            format!("{:.1}%", region.fraction * 100.0),
        ]);
    }
    print!("{regions}");

    // Traced run: the memory-boundedness evidence (paper: > 68 % of time
    // waiting for memory on the modeled i3-8109U).
    let mut mem = MemorySim::i3_8109u();
    let mut profiler = Profiler::timed();
    Icp::new(IcpConfig {
        max_iterations: 5,
        ..Default::default()
    })
    .align(&scan2, &scan1, &mut profiler, &mut mem);
    let report = mem.report();
    println!("\ncache behaviour of the correspondence chase (i3-8109U model):");
    let mut cache = Table::new(&["level", "accesses", "miss ratio"]);
    for (i, level) in report.levels.iter().enumerate() {
        cache.row_owned(vec![
            ["L1D", "L2", "LLC"][i].to_owned(),
            level.accesses.to_string(),
            format!("{:.1}%", level.miss_ratio() * 100.0),
        ]);
    }
    print!("{cache}");
    println!(
        "memory accesses (missed all levels): {:.2}% of traced reads\n\
         paper's claim preserved in shape: correspondence search produces\n\
         irregular accesses that defeat the cache hierarchy, making the\n\
         kernel memory-bound.",
        report.memory_access_ratio() * 100.0
    );
}
