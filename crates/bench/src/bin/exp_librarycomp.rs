//! EXP-F21 — regenerates **Fig. 21** (§VII): execution time of the tuned
//! `pp2d` planner against PythonRobotics-style and CppRobotics-style
//! baselines on the `a_star.py` demo map, scaled by factors 1–64.
//!
//! The paper measures 357×–3469× over P-Rob and 74×–13576× over C-Rob;
//! the Python interpreter is out of scope here, so the expected *shape* is
//! the RTRBench column staying orders of magnitude below both baselines
//! with the gap growing with scale (the baselines are quadratic-ish in the
//! open-list size).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_librarycomp [--max-scale 64]
//! ```

use rtr_baselines::{CRobAstar, PRobAstar, PRobIcp, PRobKnn};
use rtr_bench::{cli_or_exit, eng, time_once};
use rtr_geom::{maps, Footprint, KdTree, Point3, RigidTransform};
use rtr_harness::{Args, Pool, Profiler, Table};
use rtr_perception::{Icp, IcpConfig};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_sim::{scene, SimRng};
use rtr_trace::NullTrace;

fn main() {
    let args = cli_or_exit("exp_librarycomp", Args::parse_env());
    let max_scale = cli_or_exit("exp_librarycomp", args.get_usize("max-scale", 8));
    println!("EXP-F21: library comparison on the PythonRobotics demo map (Fig. 21)\n");
    println!("(--max-scale {max_scale}; the paper sweeps to 64 — the baselines' cost");
    println!(" grows superlinearly, so large scales take correspondingly long)\n");

    let base_map = maps::pythonrobotics_map();
    let mut table = Table::new(&[
        "scale",
        "P-Rob style (s)",
        "C-Rob style (s)",
        "RTRBench (s)",
        "speedup vs P",
        "speedup vs C",
    ]);

    let mut scale = 1usize;
    while scale <= max_scale {
        let map = base_map.upscaled(scale);
        let start = (
            maps::PYTHONROBOTICS_START.0 * scale,
            maps::PYTHONROBOTICS_START.1 * scale,
        );
        let goal = (
            maps::PYTHONROBOTICS_GOAL.0 * scale,
            maps::PYTHONROBOTICS_GOAL.1 * scale,
        );

        let (p_res, p_time) = time_once(|| PRobAstar::plan(&map, start, goal));
        let (c_res, c_time) = time_once(|| CRobAstar::plan(&map, start, goal));
        let (r_res, r_time) = time_once(|| {
            let mut profiler = Profiler::timed();
            // Point-like footprint: the baselines are point planners.
            Pp2d::new(Pp2dConfig {
                start,
                goal,
                footprint: Footprint::new(map.resolution() * 0.5, map.resolution() * 0.5),
                weight: 1.0,
            })
            .plan(&map, &mut profiler, &mut NullTrace)
        });
        assert!(
            p_res.is_some() && c_res.is_some() && r_res.is_some(),
            "all planners must solve the demo map at scale {scale}"
        );
        // Sanity: all three find optimal-cost paths (same algorithm).
        let p_cost = p_res.unwrap().cost;
        let r_cost = r_res.unwrap().cost / map.resolution();
        assert!(
            (p_cost - r_cost).abs() < 1e-6,
            "cost mismatch at scale {scale}: {p_cost} vs {r_cost}"
        );

        let p = p_time.as_secs_f64();
        let c = c_time.as_secs_f64();
        let r = r_time.as_secs_f64().max(1e-9);
        table.row_owned(vec![
            scale.to_string(),
            eng(p),
            eng(c),
            eng(r),
            format!("{:.0}x", p / r),
            format!("{:.0}x", c / r),
        ]);
        scale *= 2;
    }
    print!("{table}");
    println!(
        "\npaper's Fig. 21-b: RTRBench 357x-3469x over P-Rob (with the Python\n\
         interpreter) and 74x-13576x over C-Rob; reproduced shape: the tuned\n\
         implementation wins by orders of magnitude and the gap grows with scale."
    );

    spatial_comparison();
}

/// §VII extended to the spatial queries: brute-force baselines against the
/// bucketed k-d kernels, across thread counts. Parallelism does not rescue
/// a bad algorithm — the tuned side wins at every thread count.
fn spatial_comparison() {
    println!("\n§VII extension: threaded spatial queries (baseline vs k-d indexed)\n");

    // --- ICP correspondence search on synthetic living-room scans.
    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(12_000, &mut rng);
    let motion = RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
    println!(
        "ICP alignment, {} x {} point scans, 10 iterations:",
        scan1.len(),
        scan2.len()
    );
    let mut icp_table = Table::new(&["threads", "P-Rob brute (s)", "RTRBench k-d (s)", "speedup"]);
    for threads in [1usize, 4] {
        let (_, naive_t) = time_once(|| {
            PRobIcp {
                max_iterations: 10,
                threads,
                ..Default::default()
            }
            .align(&scan1, &scan2)
        });
        let (_, tuned_t) = time_once(|| {
            let mut profiler = Profiler::timed();
            Icp::new(IcpConfig {
                max_iterations: 10,
                threads,
                ..Default::default()
            })
            .align(&scan1, &scan2, &mut profiler, &mut NullTrace)
        });
        let n = naive_t.as_secs_f64();
        let t = tuned_t.as_secs_f64().max(1e-9);
        icp_table.row_owned(vec![
            threads.to_string(),
            eng(n),
            eng(t),
            format!("{:.0}x", n / t),
        ]);
    }
    print!("{icp_table}");

    // --- Roadmap k-NN candidate generation over a 5-D configuration set.
    let mut rng = SimRng::seed_from(9);
    let nodes: Vec<[f64; 5]> = (0..3_000)
        .map(|_| {
            let mut c = [0.0; 5];
            for v in &mut c {
                *v = rng.uniform(-std::f64::consts::PI, std::f64::consts::PI);
            }
            c
        })
        .collect();
    let k = 10;
    println!(
        "\nPRM k-NN candidate generation, {} nodes, k = {k}:",
        nodes.len()
    );
    let mut knn_table = Table::new(&[
        "threads",
        "P-Rob sort-all (s)",
        "RTRBench k-d (s)",
        "speedup",
    ]);
    for threads in [1usize, 4] {
        let (_, naive_t) = time_once(|| PRobKnn { threads }.k_nearest_all(&nodes, k));
        let (_, tuned_t) = time_once(|| {
            let items: Vec<([f64; 5], usize)> =
                nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            let tree = KdTree::<5>::build_balanced(&items);
            tree.batch_k_nearest(&nodes, k + 1, &Pool::new(threads))
        });
        let n = naive_t.as_secs_f64();
        let t = tuned_t.as_secs_f64().max(1e-9);
        knn_table.row_owned(vec![
            threads.to_string(),
            eng(n),
            eng(t),
            format!("{:.0}x", n / t),
        ]);
    }
    print!("{knn_table}");
    println!(
        "\nthe tuned kernels win at every thread count; threading the brute-force\n\
         baselines narrows nothing — the §VII lesson, extended to spatial queries."
    );
}
