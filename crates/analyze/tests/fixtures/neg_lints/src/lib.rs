//! One violation per compiler-enforced invariant; clippy must reject
//! every item below under the workspace lint table.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

/// `disallowed_methods` and `disallowed_types`: wall clocks and
/// hash-ordered containers.
pub fn nondeterministic() -> (Instant, SystemTime, HashMap<u8, u8>, HashSet<u8>) {
    (Instant::now(), SystemTime::now(), HashMap::new(), HashSet::new())
}

/// `clippy::{unwrap_used, panic, todo, unimplemented}` and `unsafe_code`.
pub fn panics(x: Option<u8>, p: &u8) -> u8 {
    match x.unwrap() {
        0 => panic!("boom"),
        1 => todo!(),
        2 => unimplemented!(),
        _ => unsafe { std::ptr::read(p) },
    }
}

pub fn undocumented() {}

/// `clippy::allow_attributes` and `clippy::allow_attributes_without_reason`.
#[allow(dead_code)]
fn allowed() {}

/// `unfulfilled_lint_expectations`: a stale waiver.
#[expect(clippy::panic, reason = "nothing here panics any more")]
pub fn stale_waiver() {}
