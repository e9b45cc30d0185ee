//! The verdict pipeline: the one policy deciding when a stored
//! [`Verdict`] answers a request and when a new one is written. Every
//! `snetctl` and `snetd` verdict path goes through it; `snetd` adds only
//! coalescing on top.
//!
//! - An exhaustive check is answered only by a sort certificate or a
//!   counterexample, an adversary question only by a witness. A stored
//!   verdict of the other question's kind neither answers nor is evicted.
//! - A stored verdict answers only once `verify` accepts it; a rejected
//!   entry counts as `store.rejected` and reads as a miss.
//! - A computed verdict is verified, then written. A failed write never
//!   fails the answer: it counts as `store.write_errors` and comes back
//!   as [`Stored::Failed`] for the front-end to report.

use snet_adversary::SortingRefutation;
use snet_core::api::CacheState;
use snet_core::ir::CanonicalHash;
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::is_sorted;
use snet_core::verdict::{Verdict, VerdictKind};
use snet_store::{ArtifactStore, KIND_VERDICT};

/// What a request asks of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// Does it sort? (a sort certificate or a counterexample)
    Exhaustive,
    /// Which Corollary 4.1.1 pair refutes it? (a Theorem 4.1 witness)
    Adversary,
}

impl Question {
    /// The question a verdict of this kind answers.
    fn of(kind: &VerdictKind) -> Question {
        match kind {
            VerdictKind::AdversaryWitness { .. } => Question::Adversary,
            _ => Question::Exhaustive,
        }
    }
}

/// What the store write after a verified verdict did.
#[derive(Debug, PartialEq, Eq)]
pub enum Stored {
    /// Nothing to write: a hit, or no store.
    Untouched,
    /// Written under the verdict's hash.
    Written,
    /// Not written: the entry answers the other question and stays.
    Kept,
    /// The write failed; the answer stands.
    Failed(String),
}

/// An answered request.
#[derive(Debug)]
pub struct Resolved {
    /// The answering verdict.
    pub verdict: Verdict,
    /// Its bytes; a hit replays the stored bytes verbatim.
    pub bytes: Vec<u8>,
    /// [`CacheState::Hit`] or [`CacheState::Miss`].
    pub cache: CacheState,
    /// The store write after a miss.
    pub stored: Stored,
}

/// The verified verdict stored under `hash`, of either question's kind.
fn read(
    store: &ArtifactStore,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
) -> Option<(Verdict, Vec<u8>)> {
    let (verdict, bytes) = store.get_verdict(hash)?;
    if verify(net, hash, &verdict).is_err() {
        snet_obs::counter("store.rejected", 1);
        return None;
    }
    Some((verdict, bytes))
}

/// The verified stored verdict under `hash` (`net`'s canonical hash)
/// that answers `q`, with its stored bytes.
pub(crate) fn lookup(
    store: &ArtifactStore,
    q: Question,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
) -> Option<(Verdict, Vec<u8>)> {
    read(store, net, hash).filter(|(verdict, _)| Question::of(&verdict.kind) == q)
}

/// Answers `q` for `net`: a `lookup` hit, or else `compute`'s verdict,
/// verified and then written — over a missing, corrupt or rejected entry,
/// never over a valid one of the other question's kind. A computed
/// verdict that fails verification is an internal error, handed to `E`.
pub fn resolve<E: From<String>>(
    store: Option<&ArtifactStore>,
    q: Question,
    net: &ComparatorNetwork,
    hash: &CanonicalHash,
    compute: impl FnOnce() -> Result<Verdict, E>,
) -> Result<Resolved, E> {
    let other_kind = match store.and_then(|s| read(s, net, hash)) {
        Some((verdict, bytes)) if Question::of(&verdict.kind) == q => {
            let stored = Stored::Untouched;
            return Ok(Resolved { verdict, bytes, cache: CacheState::Hit, stored });
        }
        entry => entry.is_some(),
    };
    let verdict = compute()?;
    verify(net, hash, &verdict).map_err(|e| format!("internal: computed verdict rejected: {e}"))?;
    let bytes = verdict.to_json().into_bytes();
    let stored = match store {
        None => Stored::Untouched,
        Some(_) if other_kind => Stored::Kept,
        Some(s) => match s.put(hash, KIND_VERDICT, &bytes) {
            Ok(_) => Stored::Written,
            Err(e) => {
                snet_obs::counter("store.write_errors", 1);
                Stored::Failed(e.to_string())
            }
        },
    };
    Ok(Resolved { verdict, bytes, cache: CacheState::Miss, stored })
}

/// Files a verdict computed outside [`resolve`] (a search's sort
/// certificate, a certificate's witness) through it: verified, then
/// written under the same policy unless the store already answers.
pub fn publish(
    store: &ArtifactStore,
    net: &ComparatorNetwork,
    verdict: Verdict,
) -> Result<Resolved, String> {
    let q = Question::of(&verdict.kind);
    resolve(Some(store), q, net, &CanonicalHash::of_network(net), || Ok(verdict))
}

/// Checks `verdict` as an answer for `net` under key `hash`. Every kind
/// must carry `hash` and `net`'s wire count. A sort certificate must
/// claim all `2^wires` inputs: it is the one claim taken on trust, since
/// re-checking it is the exhaustive run itself. A counterexample's input
/// must spell its index, and the interpreter must map it to the stored,
/// unsorted output. A witness must pass [`SortingRefutation::verify`].
fn verify(net: &ComparatorNetwork, hash: &CanonicalHash, verdict: &Verdict) -> Result<(), String> {
    let n = net.wires();
    if verdict.hash != *hash || verdict.wires as usize != n {
        return Err(format!("verdict is for {} on {} wires", verdict.hash, verdict.wires));
    }
    match &verdict.kind {
        VerdictKind::SortCertificate { tested } if n >= 64 || *tested != 1u64 << n => {
            Err(format!("certificate tested {tested} inputs, not 2^{n}"))
        }
        VerdictKind::SortCertificate { .. } => Ok(()),
        VerdictKind::Counterexample { index, input, output } => {
            let spelled = input.iter().enumerate().try_fold(0u64, |acc, (w, &bit)| {
                (bit <= 1 && w < 64).then(|| acc | u64::from(bit) << w)
            });
            if input.len() != n || spelled != Some(*index) {
                return Err(format!("counterexample input does not spell index {index}"));
            }
            let evaluated = net.evaluate(input);
            if evaluated != *output || is_sorted(&evaluated) {
                return Err("counterexample output does not match re-evaluation".into());
            }
            Ok(())
        }
        VerdictKind::AdversaryWitness { .. } => {
            SortingRefutation::from_verdict(verdict).expect("a witness verdict").verify(net)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::element::{Element, ElementKind};
    use snet_core::network::Level;
    use snet_core::verdict::verdict_zero_one_exhaustive;

    fn scratch_store(tag: &str) -> ArtifactStore {
        let root = std::env::temp_dir().join(format!("snet-verdicts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        ArtifactStore::open(root).expect("scratch store opens")
    }

    fn brick(n: u32, rounds: u32) -> ComparatorNetwork {
        let levels = (0..rounds)
            .map(|round| {
                Level::of_elements(
                    (round % 2..n.saturating_sub(1))
                        .step_by(2)
                        .map(|w| Element::cmp(w, w + 1))
                        .collect(),
                )
            })
            .collect();
        ComparatorNetwork::new(n as usize, levels).expect("valid brick network")
    }

    fn exhaustive(net: &ComparatorNetwork) -> Result<Verdict, String> {
        Ok(verdict_zero_one_exhaustive(net))
    }

    #[test]
    fn a_forged_counterexample_is_rejected_and_replaced() {
        let store = scratch_store("forged");
        let sorter = brick(8, 8);
        let hash = CanonicalHash::of_network(&sorter);
        let mut input = vec![0; 8];
        input[0] = 1;
        let forged = Verdict::counterexample(hash, 8, 1, input, vec![0, 0, 0, 0, 0, 0, 1, 0]);
        store.put_verdict(&forged).unwrap();

        let r = resolve(Some(&store), Question::Exhaustive, &sorter, &hash, || exhaustive(&sorter))
            .unwrap();
        assert_eq!(r.cache, CacheState::Miss, "the forged entry does not answer");
        assert!(r.verdict.is_sorting());
        assert_eq!(r.stored, Stored::Written);
        let (replaced, bytes) = store.get_verdict(&hash).expect("the entry was rewritten");
        assert!(replaced.is_sorting());
        assert_eq!(bytes, r.bytes);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_verdict_of_one_question_neither_answers_nor_evicts_the_other() {
        let store = scratch_store("kinds");
        // The butterfly: lg n all-`+` shuffle stages on 8 wires, which
        // the Section 4 adversary defeats.
        let ird = snet_topology::ShuffleNetwork::new(8, vec![vec![ElementKind::Cmp; 4]; 3])
            .to_iterated_reverse_delta();
        let net = ird.to_network();
        let hash = CanonicalHash::of_network(&net);
        let witness = || {
            let out = snet_adversary::theorem41(&ird, 3);
            snet_adversary::refute(&net, &out.input_pattern)
                .map(|r| r.to_verdict(&net))
                .map_err(|e| e.to_string())
        };

        let cold =
            resolve(Some(&store), Question::Exhaustive, &net, &hash, || exhaustive(&net)).unwrap();
        assert!(matches!(cold.verdict.kind, VerdictKind::Counterexample { .. }));
        assert_eq!((cold.cache, cold.stored), (CacheState::Miss, Stored::Written));
        for _ in 0..2 {
            let adv = resolve(Some(&store), Question::Adversary, &net, &hash, witness).unwrap();
            assert!(matches!(adv.verdict.kind, VerdictKind::AdversaryWitness { .. }));
            assert_eq!((adv.cache, adv.stored), (CacheState::Miss, Stored::Kept));
        }
        let warm =
            resolve(Some(&store), Question::Exhaustive, &net, &hash, || -> Result<_, String> {
                panic!("a warm hit does not compute")
            })
            .unwrap();
        assert_eq!(warm.cache, CacheState::Hit);
        assert_eq!(warm.bytes, cold.bytes, "the counterexample survives byte for byte");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_failed_write_still_answers() {
        let store = scratch_store("readonly");
        let sorter = brick(6, 6);
        let hash = CanonicalHash::of_network(&sorter);
        // A regular file where the entry's shard directory belongs.
        let shard = store.root().join("objects").join(&hash.to_hex()[..2]);
        std::fs::write(&shard, b"not a directory").unwrap();
        let r = resolve(Some(&store), Question::Exhaustive, &sorter, &hash, || exhaustive(&sorter))
            .unwrap();
        assert!(r.verdict.is_sorting());
        assert!(matches!(r.stored, Stored::Failed(_)), "{:?}", r.stored);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn verify_rejects_forged_claims() {
        let sorter = brick(6, 6);
        let hash = CanonicalHash::of_network(&sorter);
        let good = verdict_zero_one_exhaustive(&sorter);
        assert_eq!(verify(&sorter, &hash, &good), Ok(()));
        let other = CanonicalHash::of_network(&brick(6, 5));
        assert!(verify(&sorter, &other, &good).is_err(), "wrong key");
        let short = Verdict::certificate(hash, 6, 63);
        assert!(verify(&sorter, &hash, &short).is_err(), "not every input");
        let wide = Verdict::certificate(hash, 7, 128);
        assert!(verify(&sorter, &hash, &wide).is_err(), "wrong wire count");
        // A witness naming a wire the network lacks is rejected, not a panic.
        let identity: Vec<u32> = (0..6).collect();
        let stray = Verdict::with_kind(
            hash,
            6,
            VerdictKind::AdversaryWitness {
                input_a: identity.clone(),
                input_b: identity.clone(),
                m: 0,
                wire_a: 99,
                wire_b: 1,
                output_a: identity.clone(),
                output_b: identity,
            },
        );
        assert!(verify(&sorter, &hash, &stray).is_err(), "stray witness wire");
    }
}
