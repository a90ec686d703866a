//! Full-scale shape verification: `repro verify`'s checklist of the
//! paper's headline claims (stated once, in
//! `abr_exp::experiments::verify`) run on the paper-sized matrices. It
//! runs minutes, so it is `#[ignore]`d from the default test pass; run it
//! with
//!
//! ```text
//! cargo test --release --test paper_shapes_full -- --ignored
//! ```
//!
//! EXPERIMENTS.md records its output.

use block_async_relax::exp::experiments::verify;
use block_async_relax::exp::{ExpOptions, Scale};

#[test]
#[ignore = "full paper scale; minutes of runtime"]
fn every_paper_claim_holds_at_full_scale() {
    let opts = ExpOptions { scale: Scale::Full, runs: 8, seed: 42 };
    let failed: Vec<String> = verify::run(&opts)
        .expect("checklist")
        .into_iter()
        .filter(|c| !c.pass)
        .map(|c| format!("FAIL {}: expected {}, measured {}", c.claim, c.expected, c.measured))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
