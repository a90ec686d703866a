//! Golden hashes of the matrix generators.
//!
//! Every experiment, workload and golden solve starts from a generated
//! matrix, so a change to how a generator assembles its matrix must leave
//! the CSR arrays bit-identical. These tests pin, for each generator, the
//! FNV-1a-64 hash of `row_ptr`, of `col_idx` and of the value bits (each
//! element as eight little-endian bytes), written `row/col/val` in hex.
//!
//! The Table 1 hashes are the ones recorded when the triplet build was
//! unified into one counting build; the rest were recorded from the
//! triplet-built generators that descriptor assembly replaced. The
//! `_stencil` variants on grids too narrow for their stencil (sides 0 and
//! 1, and 2 for the 9-point one) panicked in the triplet-built code; they
//! are pinned to the plain generator's hashes, as their matrix is the
//! same. The constants must never be regenerated to make a change pass.

use block_async_relax::core::Fnv1a;
use block_async_relax::sparse::gen::{self, TestMatrix};
use block_async_relax::sparse::CsrMatrix;

/// `row/col/val` hashes of `a`.
fn hashes(a: &CsrMatrix) -> String {
    let fnv = |words: &mut dyn Iterator<Item = u64>| {
        let mut h = Fnv1a::new();
        words.for_each(|w| {
            h.write_u64(w);
        });
        h.finish()
    };
    let rows = fnv(&mut a.row_ptr().iter().map(|&p| p as u64));
    let cols = fnv(&mut a.col_idx().iter().map(|&c| c as u64));
    let vals = fnv(&mut a.values().iter().map(|v| v.to_bits()));
    format!("{rows:016x}/{cols:016x}/{vals:016x}")
}

/// Checks each built `(name, matrix)` against the golden row in the same
/// place, and reports every mismatch at once.
fn check(golden: &[(&str, &str)], built: Vec<(String, CsrMatrix)>) {
    assert_eq!(golden.len(), built.len(), "one golden row per matrix");
    let wrong: Vec<String> = golden
        .iter()
        .zip(&built)
        .filter_map(|(&(name, want), (built_name, a))| {
            assert_eq!(name, built_name, "golden rows follow the build order");
            let got = hashes(a);
            (got != want).then(|| format!("{name}: {got} (golden {want})"))
        })
        .collect();
    assert!(wrong.is_empty(), "generators drifted:\n{}", wrong.join("\n"));
}

fn table1(small: bool) -> Vec<(String, CsrMatrix)> {
    TestMatrix::ALL
        .iter()
        .map(|tm| {
            let a = if small { tm.build_small() } else { tm.build() };
            (tm.name().to_string(), a.unwrap_or_else(|e| panic!("{}: {e}", tm.name())))
        })
        .collect()
}

#[test]
fn table1_substitutes_full() {
    check(
        &[
            ("Chem97ZtZ", "5ce799d374c24678/f87efe7135b7601e/8f11c805063bf2f9"),
            ("fv1", "ff0cda261b6f3f93/7eb724d1e5b92f72/645758858192767d"),
            ("fv2", "ce1560ecf53dda0f/07afd8aa7edd2396/4671db44a7baac85"),
            ("fv3", "ce1560ecf53dda0f/07afd8aa7edd2396/7393308b9e53a703"),
            ("s1rmt3m1", "31df4d563127ce2d/1a598fb1adff3196/3f7fc637b3cb6142"),
            ("Trefethen_2000", "c78e6d15285ff439/9d82e02d3bba6acb/8511f540327a0a7b"),
            ("Trefethen_20000", "538d2ec3389f21de/c21e92e78d4c2308/ea225265a487b7e4"),
        ],
        table1(false),
    );
}

#[test]
fn table1_substitutes_small() {
    check(
        &[
            ("Chem97ZtZ", "b18761e0b2fd7bcb/908157cd0b1d0c5e/00b7a818eda585d2"),
            ("fv1", "229999e85b1f4f61/354b08f6ddd5b4ca/b330a9a32a72f3cf"),
            ("fv2", "608c3b84e35f1a8f/2fb1f53414841eee/3b53a866e81e60c7"),
            ("fv3", "608c3b84e35f1a8f/2fb1f53414841eee/64dd2e07a664b2b9"),
            ("s1rmt3m1", "5f0d23371268b962/fe0c4d3ebe731025/f527ff0ae8607c4b"),
            ("Trefethen_2000", "264223462afd6907/65911174c55acbc2/a89bc26a41c612e7"),
            ("Trefethen_20000", "7aa5db9e904a9f08/730043deb8bfaeb9/9be05aa2ef04511a"),
        ],
        table1(true),
    );
}

#[test]
fn poisson_generators() {
    let mut built = Vec::new();
    for n in [0, 1, 2, 10, 1000] {
        built.push((format!("laplacian_1d({n})"), gen::laplacian_1d(n)));
    }
    for m in [0, 1, 2, 3, 17, 100] {
        built.push((format!("laplacian_2d_5pt({m})"), gen::laplacian_2d_5pt(m)));
        let (a, _) = gen::laplacian_2d_5pt_stencil(m);
        built.push((format!("laplacian_2d_5pt_stencil({m})"), a));
        built.push((format!("laplacian_2d_9pt({m})"), gen::laplacian_2d_9pt(m)));
    }
    for m in [0, 1, 2, 3, 9, 24] {
        built.push((format!("laplacian_3d_7pt({m})"), gen::laplacian_3d_7pt(m)));
        let (a, _) = gen::laplacian_3d_7pt_stencil(m);
        built.push((format!("laplacian_3d_7pt_stencil({m})"), a));
    }
    built.push(("laplacian_2d_5pt(1024)".into(), gen::laplacian_2d_5pt(1024)));
    check(
        &[
            ("laplacian_1d(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_1d(1)", "692558b056101a44/a8c7f832281a39c5/a8c83832281aa685"),
            ("laplacian_1d(2)", "a3e34f42faa92b03/04d52e459b105565/63f87595be48f485"),
            ("laplacian_1d(10)", "ec9c3cdc47ead31b/c1c8e38256912d6d/c06cfb61c2e86485"),
            ("laplacian_1d(1000)", "4fa9811aa07fd078/89d567a57eee45eb/de120f06ae934885"),
            ("laplacian_2d_5pt(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_2d_5pt_stencil(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_2d_9pt(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_2d_5pt(1)", "692558b056101a44/a8c7f832281a39c5/a891583227eb9a75"),
            ("laplacian_2d_5pt_stencil(1)", "692558b056101a44/a8c7f832281a39c5/a891583227eb9a75"),
            ("laplacian_2d_9pt(1)", "692558b056101a44/a8c7f832281a39c5/b7aa614af3a5c74e"),
            ("laplacian_2d_5pt(2)", "a9450171a371d045/49eafc30d08822e5/1dc90c3c6e33dde5"),
            ("laplacian_2d_5pt_stencil(2)", "a9450171a371d045/49eafc30d08822e5/1dc90c3c6e33dde5"),
            ("laplacian_2d_9pt(2)", "146535c0b30cee55/fc852d9c3cb4dd25/39fd8e0d745fb825"),
            ("laplacian_2d_5pt(3)", "5a77aba22e375424/c6840903d0cd7d4d/34fa34c92abef5b5"),
            ("laplacian_2d_5pt_stencil(3)", "5a77aba22e375424/c6840903d0cd7d4d/34fa34c92abef5b5"),
            ("laplacian_2d_9pt(3)", "508e40f528bb6194/a2edfa6cac4ce5c1/488ff1e3b7a563ce"),
            ("laplacian_2d_5pt(17)", "17580c76bc0351ea/17e85b98dad5c47a/1f81fb63d5ee5875"),
            ("laplacian_2d_5pt_stencil(17)", "17580c76bc0351ea/17e85b98dad5c47a/1f81fb63d5ee5875"),
            ("laplacian_2d_9pt(17)", "a67fddaf4c2d538a/93bacda3ba6e8fba/fbae1e0870fe1a2e"),
            ("laplacian_2d_5pt(100)", "34400e49c5cf79a8/b7297c6d0c8d531f/cb2fc4dcd24f64a5"),
            ("laplacian_2d_5pt_stencil(100)", "34400e49c5cf79a8/b7297c6d0c8d531f/cb2fc4dcd24f64a5"),
            ("laplacian_2d_9pt(100)", "e4a916eaf2a5a906/30a0d8fe24d69318/b6fef8e8502c2ae5"),
            ("laplacian_3d_7pt(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_3d_7pt_stencil(0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("laplacian_3d_7pt(1)", "692558b056101a44/a8c7f832281a39c5/a876283227d4812d"),
            ("laplacian_3d_7pt_stencil(1)", "692558b056101a44/a8c7f832281a39c5/a876283227d4812d"),
            ("laplacian_3d_7pt(2)", "c80f094c6fe91ea5/02fa074bdcaded65/a7eb777cee419025"),
            ("laplacian_3d_7pt_stencil(2)", "c80f094c6fe91ea5/02fa074bdcaded65/a7eb777cee419025"),
            ("laplacian_3d_7pt(3)", "d9c430b2265562b5/4369f849e3a0dbdc/b99575c29e85c6cd"),
            ("laplacian_3d_7pt_stencil(3)", "d9c430b2265562b5/4369f849e3a0dbdc/b99575c29e85c6cd"),
            ("laplacian_3d_7pt(9)", "b5be53bfec4fe90a/3afeaa4767181ec9/b738025ba74fb7ad"),
            ("laplacian_3d_7pt_stencil(9)", "b5be53bfec4fe90a/3afeaa4767181ec9/b738025ba74fb7ad"),
            ("laplacian_3d_7pt(24)", "8f4bcfbce3de6d78/660bef510c3dd211/e9c734cc256cea25"),
            ("laplacian_3d_7pt_stencil(24)", "8f4bcfbce3de6d78/660bef510c3dd211/e9c734cc256cea25"),
            ("laplacian_2d_5pt(1024)", "258881d8ca7a8805/957d7228fa8476ad/b860811ce295a325"),
        ],
        built,
    );
}

#[test]
fn fv_generators() {
    let mut built = Vec::new();
    for (m, sigma, decades) in [
        (0, 1.0, 0.0),
        (1, 1.0, 0.0),
        (2, 1.0, 0.0),
        (3, 0.5, 2.0),
        (10, 0.3, 1.0),
        (12, 1.0, 0.0),
        (20, 0.4, 1.0),
        (99, 0.2, 2.2),
    ] {
        let a = gen::fv(m, sigma, decades).unwrap();
        built.push((format!("fv({m}, {sigma}, {decades})"), a));
    }
    for m in [1, 2, 3, 64, 512] {
        let (a, _) = gen::fv_stencil(m, 1.0).unwrap();
        built.push((format!("fv_stencil({m}, 1)"), a));
    }
    check(
        &[
            ("fv(0, 1, 0)", "a8c7f832281a39c5/cbf29ce484222325/cbf29ce484222325"),
            ("fv(1, 1, 0)", "692558b056101a44/a8c7f832281a39c5/b78f314af38eae06"),
            ("fv(2, 1, 0)", "146535c0b30cee55/fc852d9c3cb4dd25/3feb8bda2c7bada5"),
            ("fv(3, 0.5, 2)", "508e40f528bb6194/a2edfa6cac4ce5c1/993ba6cce101139b"),
            ("fv(10, 0.3, 1)", "c9d55a2a62f34e16/58895792eefe18e5/7ca528418a1a22bc"),
            ("fv(12, 1, 0)", "aea6a25f34d3d23e/164c8c0895486d85/fa0d4aba5f89e3b5"),
            ("fv(20, 0.4, 1)", "229999e85b1f4f61/354b08f6ddd5b4ca/866b1e67386c2932"),
            ("fv(99, 0.2, 2.2)", "ce1560ecf53dda0f/07afd8aa7edd2396/0fb0c08a6f49c22d"),
            ("fv_stencil(1, 1)", "692558b056101a44/a8c7f832281a39c5/b78f314af38eae06"),
            ("fv_stencil(2, 1)", "146535c0b30cee55/fc852d9c3cb4dd25/3feb8bda2c7bada5"),
            ("fv_stencil(3, 1)", "508e40f528bb6194/a2edfa6cac4ce5c1/573ad42e728ef1e6"),
            ("fv_stencil(64, 1)", "215f5bc2974ea66a/d930b22544c45a51/8aaa9e928018cd55"),
            ("fv_stencil(512, 1)", "c2dc22f06bdb9b85/d0c20cd7dfacd7fd/ad9e7a0d75d17b55"),
        ],
        built,
    );
}
