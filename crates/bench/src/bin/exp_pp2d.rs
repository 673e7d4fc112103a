//! EXP-F5 — regenerates **Fig. 5** (§V.04): 2D path planning for the
//! 4.8 m × 1.8 m car across a 1024² city map, with collision detection
//! measured at **more than 65 %** of execution time.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_pp2d [--size 1024]
//! ```

use rtr_bench::cli_or_exit;
use rtr_geom::maps;
use rtr_harness::{Args, Profiler, Table};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_trace::NullTrace;

fn main() {
    let args = cli_or_exit("exp_pp2d", Args::parse_env());
    let size = cli_or_exit("exp_pp2d", args.get_usize("size", 1024));
    println!("EXP-F5: car path planning on a {size}x{size} city map\n");

    // 0.5 m cells: the 4.8 m x 1.8 m footprint covers ~55 cells per probe.
    let map = maps::city_blocks(size, 0.5, 3);
    let block = (size / 16).max(8);
    // Street-centered endpoints (streets span the first block/4 cells of
    // every block pitch), with full footprint clearance from the edges.
    let start = (8usize, 8usize);
    let mut goal = (size - 9) / block * block + 8;
    if goal + 10 >= size {
        goal -= block;
    }

    let mut profiler = Profiler::timed();
    let result = Pp2d::new(Pp2dConfig::car(start, (goal, goal)))
        .plan(&map, &mut profiler, &mut NullTrace)
        .expect("city streets are connected");
    profiler.freeze_total();

    let mut table = Table::new(&["metric", "value"]);
    table.row_owned(vec![
        "map occupancy".into(),
        format!("{:.1}%", map.occupancy_ratio() * 100.0),
    ]);
    table.row_owned(vec!["path length".into(), format!("{:.1} m", result.cost)]);
    table.row_owned(vec!["nodes expanded".into(), result.expanded.to_string()]);
    table.row_owned(vec![
        "collision checks".into(),
        result.collision_checks.to_string(),
    ]);
    table.row_owned(vec![
        "grid cells probed".into(),
        result.cells_probed.to_string(),
    ]);
    print!("{table}");

    println!("\ntime breakdown:");
    for region in profiler.report() {
        println!(
            "  {:<22} {:>9.1} ms  ({:>4.1}%)",
            region.name,
            region.total.as_secs_f64() * 1e3,
            region.fraction * 100.0
        );
    }
    println!(
        "\ncollision-detection share: {:.1}%  (paper: > 65%)",
        profiler.fraction("collision_detection") * 100.0
    );
}
