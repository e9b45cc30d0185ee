//! Seeded inputs. Every network the benchmark sends is generated here
//! from the run's `--seed`; the program under test only ever sees the
//! generated documents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snet_core::api::{AdversaryRequest, CheckRequest};
use snet_core::element::{Element, ElementKind};
use snet_core::ir::CanonicalHash;
use snet_core::network::ComparatorNetwork;
use std::collections::HashSet;

/// What the daemon (or CLI) must answer for a form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// A constructed sorter: a sort certificate over all 2^n inputs.
    Sorts,
    /// A network missing an adjacent comparator: a counterexample.
    Fails,
    /// A shallow shuffle network: an adversary witness.
    Witness,
}

/// One generated network with its request body.
pub struct Form {
    pub expect: Expect,
    /// The network the answer is checked against (for shuffle forms,
    /// the iterated-reverse-delta circuit the adversary refutes).
    pub net: ComparatorNetwork,
    /// Shuffle stages of a `Witness` form.
    pub stages: Option<Vec<Vec<ElementKind>>>,
    pub hash: CanonicalHash,
    /// The HTTP request body (`/v1/check` or `/v1/adversary`).
    pub body: Vec<u8>,
}

impl Form {
    pub fn n(&self) -> usize {
        self.net.wires()
    }

    pub fn path(&self) -> &'static str {
        if self.stages.is_some() {
            "/v1/adversary"
        } else {
            "/v1/check"
        }
    }

    /// The `snetctl` network document (`circuit` or `shuffle`).
    pub fn file_doc(&self) -> String {
        match &self.stages {
            Some(stages) => {
                let req = AdversaryRequest { n: self.n() as u32, stages: stages.clone(), k: None };
                let v = serde_json::to_string(&req).expect("request serializes");
                // {"n":..,"stages":[..]} → {"type":"shuffle","n":..,"stages":[..]}
                format!("{{\"type\":\"shuffle\",{}", &v[1..])
            }
            None => {
                let v = serde_json::to_string(&self.net).expect("network serializes");
                format!("{{\"type\":\"circuit\",\"network\":{v}}}")
            }
        }
    }
}

/// A seeded generator that never repeats a canonical form.
pub struct Gen {
    pub rng: StdRng,
    seen: HashSet<CanonicalHash>,
}

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
            seen: HashSet::new(),
        }
    }

    fn random_pair(&mut self, n: usize) -> (u32, u32) {
        let a = self.rng.gen_range(0..n as u32);
        let mut b = self.rng.gen_range(0..n as u32 - 1);
        if b >= a {
            b += 1;
        }
        (a.min(b), a.max(b))
    }

    fn check_form(&mut self, net: ComparatorNetwork, expect: Expect) -> Option<Form> {
        let hash = CanonicalHash::of_network(&net);
        if !self.seen.insert(hash) {
            return None;
        }
        let body = serde_json::to_string(&CheckRequest { network: net.clone() })
            .expect("request serializes")
            .into_bytes();
        Some(Form { expect, net, stages: None, hash, body })
    }

    /// A brick-wall (odd-even transposition) sorter on `n` wires with a
    /// seeded suffix of redundant comparators, so every draw is a new
    /// canonical form that still sorts.
    pub fn sorter(&mut self, n: usize) -> Form {
        loop {
            let mut net = snet_sorters::brick_wall(n);
            for _ in 0..self.rng.gen_range(2..=5usize) {
                let (a, b) = self.random_pair(n);
                net.push_elements(vec![Element::cmp(a, b)]).expect("valid comparator");
            }
            if let Some(f) = self.check_form(net, Expect::Sorts) {
                return f;
            }
        }
    }

    /// Random comparator layers on `n` wires that never compare wires
    /// `k` and `k+1` directly. Every sorting network contains each
    /// adjacent comparator, so this provably does not sort, and the
    /// engine stops at the first failing input.
    pub fn non_sorter(&mut self, n: usize) -> Form {
        loop {
            let k = self.rng.gen_range(0..n as u32 - 1);
            let mut net = ComparatorNetwork::empty(n);
            for _ in 0..n / 2 {
                let mut wires: Vec<u32> = (0..n as u32).collect();
                for i in (1..wires.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    wires.swap(i, j);
                }
                let layer: Vec<Element> = wires
                    .chunks(2)
                    .filter(|p| p.len() == 2)
                    .map(|p| Element::cmp(p[0].min(p[1]), p[0].max(p[1])))
                    .filter(|e| !(e.a == k && e.b == k + 1))
                    .collect();
                net.push_elements(layer).expect("disjoint comparators");
            }
            if let Some(f) = self.check_form(net, Expect::Fails) {
                return f;
            }
        }
    }

    /// A random shuffle network on `n = 2^l` wires with `l/2..=l`
    /// stages that the §4 adversary refutes (draws it cannot refute are
    /// skipped, so no request of the workload is rejected).
    pub fn shuffle(&mut self, n: usize) -> Form {
        let l = n.trailing_zeros() as usize;
        loop {
            let d = self.rng.gen_range(l / 2..=l);
            let sn = snet_topology::random::random_shuffle_network(n, d, 1.0, &mut self.rng);
            let stages = sn.stages().to_vec();
            let ird = sn.to_iterated_reverse_delta();
            if snet_adversary::theorem41(&ird, l).d_set.len() < 2 {
                continue;
            }
            let net = ird.to_network();
            let hash = CanonicalHash::of_network(&net);
            if !self.seen.insert(hash) {
                continue;
            }
            let req = AdversaryRequest { n: n as u32, stages: stages.clone(), k: None };
            let body = serde_json::to_string(&req).expect("request serializes").into_bytes();
            return Form { expect: Expect::Witness, net, stages: Some(stages), hash, body };
        }
    }

    /// Uniform in `0..k`.
    pub fn index(&mut self, k: usize) -> usize {
        self.rng.gen_range(0..k)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle_vec<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            v.swap(i, j);
        }
    }
}
