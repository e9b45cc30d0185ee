//! Answer checks. A verdict is accepted only if it is right about the
//! generated form: sorters carry a sort certificate over all 2^n
//! inputs, counterexamples replay unsorted through the benchmark's own
//! evaluation of the network, and adversary witnesses pass `verify`.

use crate::common::{parse_json, u32_array};
use crate::inputs::{Expect, Form};
use serde_json::Value;
use snet_adversary::SortingRefutation;
use snet_core::network::ComparatorNetwork;

fn sorted(v: &[u32]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

/// Checks a `snet-verdict/1` document against the form it answers.
pub fn verdict(form: &Form, body: &[u8]) -> Result<(), String> {
    let doc = parse_json(body)?;
    if doc.get("schema").and_then(Value::as_str) != Some("snet-verdict/1") {
        return Err("not a snet-verdict/1 document".into());
    }
    if doc.get("hash").and_then(Value::as_str) != Some(form.hash.to_hex().as_str()) {
        return Err("verdict is keyed by another canonical hash".into());
    }
    let v = doc.get("verdict").ok_or("verdict field missing")?;
    let kind = v.get("kind").and_then(Value::as_str).unwrap_or("");
    match form.expect {
        Expect::Sorts => {
            let tested = v.get("tested").and_then(Value::as_u64);
            if kind != "sort-certificate" || tested != Some(1u64 << form.n()) {
                return Err(format!("sorter on n={} got {kind} tested={tested:?}", form.n()));
            }
        }
        Expect::Fails => {
            if kind != "counterexample" {
                return Err(format!("non-sorter on n={} got {kind}", form.n()));
            }
            let input = u32_array(v.get("input")).ok_or("counterexample input missing")?;
            counterexample(&form.net, &input)?;
        }
        Expect::Witness => {
            if kind != "adversary-witness" {
                return Err(format!("shuffle network on n={} got {kind}", form.n()));
            }
            let r = refutation(v, "wire_a", "wire_b")?;
            r.verify(&form.net).map_err(|e| format!("witness rejected: {e}"))?;
        }
    }
    Ok(())
}

/// Replays a claimed counterexample through the network with the
/// reference interpreter: the output must be unsorted.
pub fn counterexample(net: &ComparatorNetwork, input: &[u32]) -> Result<(), String> {
    if input.len() != net.wires() {
        return Err("counterexample has the wrong width".into());
    }
    if sorted(&net.evaluate(input)) {
        return Err("counterexample input comes out sorted".into());
    }
    Ok(())
}

/// Reads a witness pair out of a verdict (`wire_a`/`wire_b`) or an
/// `snetctl refute -o` file (`wire_pair`).
pub fn refutation(v: &Value, wa: &str, wb: &str) -> Result<SortingRefutation, String> {
    let arr = |k: &str| u32_array(v.get(k)).ok_or(format!("witness field {k} missing"));
    let (a, b) = match v.get("wire_pair").and_then(Value::as_array) {
        Some(p) if p.len() == 2 => (p[0].as_u64(), p[1].as_u64()),
        _ => (v.get(wa).and_then(Value::as_u64), v.get(wb).and_then(Value::as_u64)),
    };
    Ok(SortingRefutation {
        input_a: arr("input_a")?,
        input_b: arr("input_b")?,
        m: v.get("m").and_then(Value::as_u64).ok_or("witness m missing")? as u32,
        wire_pair: (a.ok_or("wire missing")? as u32, b.ok_or("wire missing")? as u32),
        output_a: arr("output_a")?,
        output_b: arr("output_b")?,
    })
}

/// Checks a depth-optimal search result document (`/v1/jobs/{id}`).
pub fn search_result(n: usize, shuffle: bool, result: &Value) -> Result<(), String> {
    let net = match result.get("network") {
        Some(v) => Some(
            serde_json::from_value::<ComparatorNetwork>(v.clone())
                .map_err(|e| format!("search network does not parse: {e}"))?,
        ),
        None => None,
    };
    search_answer(n, shuffle, result.get("optimal_depth").and_then(Value::as_u64), net.as_ref())
}

/// Checks a depth-optimal search answer: the known optimal depth, and
/// a witness network no deeper than that which sorts every 0-1 input.
pub fn search_answer(
    n: usize,
    shuffle: bool,
    depth: Option<u64>,
    net: Option<&ComparatorNetwork>,
) -> Result<(), String> {
    let want = match (n, shuffle) {
        (4, true) => 3,
        (5, false) | (6, false) => 5,
        (7, false) => 6,
        _ => return Err(format!("no known optimum for n={n}")),
    };
    if depth != Some(want) {
        return Err(format!(
            "search n={n} shuffle={shuffle}: optimal depth {depth:?}, want {want}"
        ));
    }
    let net = net.ok_or("search answer has no network")?;
    if net.wires() != n || net.comparator_depth() as u64 > want {
        return Err(format!(
            "search network has n={} depth {}",
            net.wires(),
            net.comparator_depth()
        ));
    }
    for bits in 0u32..(1 << n) {
        let input: Vec<u32> = (0..n).map(|w| (bits >> w) & 1).collect();
        if !sorted(&net.evaluate(&input)) {
            return Err(format!("search network fails on 0-1 input {bits:#b}"));
        }
    }
    Ok(())
}
