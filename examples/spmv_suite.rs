//! CSR-Adaptive SpMV over the synthetic matrix suite (paper §IV-C).
//!
//! The paper draws inputs from the Florida sparse-matrix collection; this
//! reproduction generates structural stand-ins (road / web / FEM / random /
//! circuit classes). For each, the example shows the CSR-Adaptive binning
//! histogram (how many Stream / Vector / VectorL row blocks the matrix
//! produces) and runs the verified out-of-core SpMV on the APU + SSD tree.
//!
//! ```text
//! cargo run --release --example spmv_suite
//! ```

use northup_suite::apps::host::{compare, Grid, Tolerance};
use northup_suite::apps::spmv::{spmv_northup_on, spmv_storage, spmv_x};
use northup_suite::prelude::*;
use northup_suite::sparse::{bin_rows, kind_histogram, BinningParams, SuiteMatrix};

fn main() -> Result<()> {
    println!(
        "{:<12} {:>9} {:>11} {:>8} {:>22} {:>10} {:>9}",
        "matrix", "rows", "nnz", "nnz/row", "bins (strm/vec/vlong)", "makespan", "slowdown"
    );
    for m in SuiteMatrix::ALL {
        let csr = m.generate(0);
        let stats = csr.row_stats();
        let bins = kind_histogram(&bin_rows(&csr, BinningParams::default()));

        let input = SpmvInput::Matrix(csr.clone());
        let baseline = spmv_in_memory(&input, ExecMode::Real)?;
        let storage = spmv_storage(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(presets::apu_two_level(storage), ExecMode::Real)?;
        let run = spmv_northup_on(&rt, &input)?;
        let mut oracle = vec![0.0f32; csr.rows];
        csr.spmv_reference(&spmv_x(csr.cols), &mut oracle);
        if let Some(output) = run.output {
            let grid = Grid::row_major(csr.rows, 1);
            let checked = compare(&rt, output, grid, &oracle, Tolerance::Rel(1e-4));
            assert!(checked.is_ok(), "{} mismatch: {checked:?}", m.name());
        }

        println!(
            "{:<12} {:>9} {:>11} {:>8.1} {:>22} {:>10} {:>9.3}",
            m.name(),
            csr.rows,
            csr.nnz(),
            stats.mean,
            format!("{}/{}/{}", bins[0], bins[1], bins[2]),
            format!("{}", run.makespan()),
            run.slowdown_vs(&baseline)
        );
    }
    println!("\nall results verified against the reference SpMV");
    println!("(paper-scale 16M-row shape: cargo run -p northup-bench --bin figures -- fig6)");
    Ok(())
}
