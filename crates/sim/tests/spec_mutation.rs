//! Mutation test for the size and workload specs that `mivsim` parses
//! from its command line (`--l2`, `--line`, `--protected`, `--custom`).
//!
//! Valid specs are mutated with a fixed-seed [`Rng`] under a fixed
//! iteration budget — character substitutions, insertions and
//! deletions over the specs' own alphabet — and each result goes
//! through the CLI's own front end: [`parse_size`], `str::parse` for the
//! line size and [`parse_custom_profile`], then
//! [`SystemConfig::try_hpca03`] and [`System::try_new`]. Every input must end in a typed error or a
//! machine that builds; none may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use miv_core::timing::Scheme;
use miv_obs::rng::Rng;
use miv_sim::cli::{parse_custom_profile, parse_size};
use miv_sim::{System, SystemConfig};

const SIZES: [&str; 7] = ["64K", "256K", "1M", "4M", "16M", "256M", "1G"];
const LINES: [&str; 3] = ["32", "64", "128"];
const PROFILES: [&str; 4] = [
    "ws=8M,hot=64K,mem=0.4,run=512",
    "ws=2M,hot=128K,mid=1M,write=0.2,chase=0.3",
    "ws=64M,mid=4M,hot=256K,far-frac=0.1,hot-frac=0.6",
    "ws=16K,stream=0.5,branch=0.2,mispredict=0.05",
];

/// Bytes a mutation may write: the specs' own alphabet, so mutants
/// stay close to something a user might type.
const ALPHABET: &[u8] = b"0123456789KMGkmg=,.-";

fn mutate(rng: &mut Rng, spec: &str) -> String {
    let mut bytes = spec.as_bytes().to_vec();
    for _ in 0..rng.gen_range_u64(1, 4) {
        let byte = ALPHABET[rng.gen_range_usize(0, ALPHABET.len())];
        match rng.gen_range_u64(0, 3) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range_usize(0, bytes.len());
                bytes[at] = byte;
            }
            1 if !bytes.is_empty() => {
                bytes.remove(rng.gen_range_usize(0, bytes.len()));
            }
            _ => bytes.insert(rng.gen_range_usize(0, bytes.len() + 1), byte),
        }
    }
    String::from_utf8(bytes).expect("specs and alphabet are ASCII")
}

/// One of `specs`, mutated three times in ten.
fn pick(rng: &mut Rng, specs: &[&str]) -> String {
    let spec = specs[rng.gen_range_usize(0, specs.len())];
    if rng.gen_bool(0.3) {
        mutate(rng, spec)
    } else {
        spec.to_string()
    }
}

/// What the CLI front end made of one set of specs.
#[derive(Debug, Default)]
struct Outcomes {
    parse_errors: u32,
    geometry_errors: u32,
    system_errors: u32,
    builds: u32,
}

/// Parses and builds the way `mivsim run` does.
fn build(l2: &str, line: &str, protected: &str, custom: &str, scheme: Scheme, out: &mut Outcomes) {
    let (Some(l2), Ok(line), Some(protected), Ok(profile)) = (
        parse_size(l2),
        line.parse::<u32>(),
        parse_size(protected),
        parse_custom_profile(custom),
    ) else {
        out.parse_errors += 1;
        return;
    };
    let Ok(mut cfg) = SystemConfig::try_hpca03(scheme, l2, line) else {
        out.geometry_errors += 1;
        return;
    };
    cfg.checker.protected_bytes = protected;
    match System::try_new(cfg, profile, 1) {
        Ok(_) => out.builds += 1,
        Err(_) => out.system_errors += 1,
    }
}

#[test]
fn mutated_specs_fail_cleanly_or_build() {
    let mut rng = Rng::seed_from_u64(0x5bec_f11e);
    let mut out = Outcomes::default();
    for i in 0..2_000 {
        // L2 seeds stop at 16M so a clean build stays cheap; mutants
        // still reach sizes past `CacheConfig::MAX_LINES`.
        let l2 = pick(&mut rng, &SIZES[..5]);
        let line = pick(&mut rng, &LINES);
        let protected = pick(&mut rng, &SIZES);
        let custom = pick(&mut rng, &PROFILES);
        let scheme = Scheme::ALL[i % Scheme::ALL.len()];
        let built = catch_unwind(AssertUnwindSafe(|| {
            build(&l2, &line, &protected, &custom, scheme, &mut out)
        }));
        assert!(
            built.is_ok(),
            "{scheme:?} --l2 {l2:?} --line {line:?} --protected {protected:?} \
             --custom {custom:?} panicked"
        );
    }
    // The budget reaches every outcome, so none of them is vacuous.
    assert!(out.parse_errors > 500, "{out:?}");
    assert!(out.geometry_errors > 100, "{out:?}");
    assert!(out.system_errors > 150, "{out:?}");
    assert!(out.builds > 150, "{out:?}");
}

#[test]
fn the_unmutated_specs_build_on_every_scheme() {
    for scheme in Scheme::ALL {
        let mut out = Outcomes::default();
        build("1M", "64", "256M", PROFILES[0], scheme, &mut out);
        assert_eq!(out.builds, 1, "{scheme:?}: {out:?}");
    }
}
