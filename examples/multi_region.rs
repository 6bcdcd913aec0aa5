//! The paper's Figure-4 scenario: a device partitioned into three
//! regions with 3, 3 and 4 interchangeable module implementations.
//!
//! ```text
//! cargo run --release --example multi_region
//! ```
//!
//! The conventional flow needs one *complete* bitstream per combination
//! (3 × 3 × 4 = 36); JPG needs one complete base bitstream plus one
//! *partial* per module implementation (3 + 3 + 4 = 10). This example
//! builds the JPG side for real — base + all ten partials — and
//! tabulates the bitstream economics against the (computed) conventional
//! counts.

use jpg::workflow::{base_modules, build_base, fig4, implement_variant, FIG4_DEVICE};
use jpg::JpgProject;

fn main() {
    // Three full-height regions on an XCV100 (20 x 30 CLBs), with 3, 3
    // and 4 implementations each, as in Figure 4.
    let regions = fig4();

    println!("Building the base design (first variant of each region)…");
    let base = build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("base");
    let full_bytes = base.bitstream.bitstream.byte_len();
    println!("  complete base bitstream: {full_bytes} bytes");

    let project = JpgProject::open(base.bitstream.clone()).expect("open");

    println!("\nGenerating all 10 partial bitstreams…");
    let mut partial_bytes_total = 0usize;
    let mut partial_count = 0usize;
    for r in &regions {
        let prefix = &r.prefix;
        for (vi, nl) in r.variants.iter().enumerate() {
            let v = implement_variant(&base, prefix, nl, 100 + vi as u64).expect("variant");
            let partial = project.generate_partial(&v.xdl, &v.ucf).expect("partial");
            println!(
                "  {prefix}{:<8} -> {:6} bytes ({:4.1}% of complete), cols {:?}",
                nl.name,
                partial.bitstream.byte_len(),
                100.0 * partial.bitstream.byte_len() as f64 / full_bytes as f64,
                (
                    partial.clb_columns.first().copied().unwrap_or(0),
                    partial.clb_columns.last().copied().unwrap_or(0)
                ),
            );
            partial_bytes_total += partial.bitstream.byte_len();
            partial_count += 1;
        }
    }

    let combos: usize = regions.iter().map(|r| r.variants.len()).product();
    println!("\n== Figure 4 economics ==");
    println!(
        "conventional flow : {combos} complete bitstreams = {} bytes",
        combos * full_bytes
    );
    println!(
        "JPG flow          : 1 complete + {partial_count} partials = {} bytes",
        full_bytes + partial_bytes_total
    );
    println!(
        "storage ratio     : {:.1}x less with JPG",
        (combos * full_bytes) as f64 / (full_bytes + partial_bytes_total) as f64
    );
    println!(
        "average partial   : {:.1}% of a complete bitstream (paper: ~a third for a third of the device)",
        100.0 * (partial_bytes_total as f64 / partial_count as f64) / full_bytes as f64
    );
}
