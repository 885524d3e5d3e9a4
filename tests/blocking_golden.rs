//! Golden for the blocking layer, recorded at the commit before the nine
//! neighbour-query entry points were folded into one `search` (PR 20) and
//! passing unedited on it: digests of every neighbour list — item and
//! distance *bits* — that `BlockingIndex` serves over real citation
//! embeddings, and of what the four blocking plans (`resolve`, blocked
//! `join`, `impute`, blocked `cluster`) answer and bill on a perfect and a
//! noisy simulator. Written only against `BlockingIndex::{build,
//! neighbors_many, nearest_texts, distance_between}`, `Query` and `Session`.
//! A failure means a neighbour list changed an index, a distance bit or a
//! tie order; fix the index, do not re-record the rows. (The IVF arm needs a
//! 65 536-row build, too slow for a debug-profile test: `tests/ann_recall.rs`
//! and `ivf`'s unit tests pin it.)

use std::sync::Arc;

use crowdprompt::data::{CitationDataset, CitationParams};
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

/// Indexed mentions; the remaining 20 of the 120-mention slice are
/// "strangers" (in the corpus, not in the index).
const MEMBERS: usize = 100;
/// In neither the corpus nor any index.
const GHOST: ItemId = ItemId(9_999_999);
const VENUES: [&str; 3] = ["sigmod", "vldb", "icde"];

/// FNV-1a over little-endian words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for b in text.bytes() {
            self.word(u64::from(b));
        }
    }
    fn hits(&mut self, lists: &[Vec<BlockingHit>]) {
        self.word(lists.len() as u64);
        for list in lists {
            self.word(list.len() as u64);
            for hit in list {
                self.word(hit.item.0);
                self.word(u64::from(hit.distance.to_bits()));
            }
        }
    }
    fn groups(&mut self, groups: &[Vec<ItemId>]) {
        self.word(groups.len() as u64);
        for group in groups {
            self.word(group.len() as u64);
            for id in group {
                self.word(id.0);
            }
        }
    }
}

/// The citation slice `tests/knn_golden.rs` embeds (120 mentions), each
/// given a venue by its entity so the imputation plan has labels to vote on.
fn slice() -> (WorldModel, Vec<ItemId>) {
    let data = CitationDataset::generate(&CitationParams::small(), 7);
    let mentions: Vec<ItemId> = data.mentions.iter().copied().take(500).collect();
    assert_eq!(mentions.len(), 120);
    let mut world = data.world;
    for &id in &mentions {
        let entity = world
            .cluster(id)
            .expect("a generated mention has an entity");
        world.set_attr(id, "venue", VENUES[(entity % 3) as usize]);
    }
    (world, mentions)
}

fn session(world: &WorldModel, items: &[ItemId], profile: ModelProfile) -> Session {
    let llm = SimulatedLlm::new(profile, Arc::new(world.clone()), 23);
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(world, items))
        .budget(Budget::Unlimited)
        .seed(23)
        .criterion("as citations")
        .build()
}

/// Compare the rows a test computed against its recorded table, printing
/// the whole computed table when they differ.
fn assert_rows(got: &[(String, u64)], recorded: &[(&str, u64)]) {
    let same = got.len() == recorded.len()
        && got
            .iter()
            .zip(recorded)
            .all(|((name, digest), (want_name, want))| name == want_name && digest == want);
    if !same {
        for (name, digest) in got {
            eprintln!("    (\"{name}\", {digest:#018x}),");
        }
        panic!("blocking rows differ from the recorded table (computed rows above)");
    }
}

#[test]
fn neighbour_lists_match_the_recorded_digests() {
    let (world, mentions) = slice();
    let session = session(&world, &mentions, ModelProfile::gpt35_like());
    let index = session.blocking_index(&mentions[..MEMBERS]).unwrap();

    // Members (self left out), strangers (embedded from their text), repeats
    // of both and the ghost, in one batch and not in index order.
    let mut probe: Vec<ItemId> = (0..mentions.len())
        .map(|i| mentions[(i * 7 + 3) % mentions.len()])
        .collect();
    probe.extend_from_slice(&mentions[..9]);
    probe.push(GHOST);
    probe.extend_from_slice(&mentions[MEMBERS - 2..MEMBERS + 3]);
    probe.push(GHOST);

    let mut rows = Vec::new();
    for k in [0, 1, 2, 7, MEMBERS, MEMBERS + 1] {
        let lists = index.neighbors_many(session.engine(), &probe, k);
        assert_eq!(lists.len(), probe.len());
        for (id, list) in probe.iter().zip(&lists) {
            let member = mentions[..MEMBERS].contains(id);
            let expect = match (*id == GHOST, member) {
                (true, _) => 0,
                (false, true) => k.min(MEMBERS - 1),
                (false, false) => k.min(MEMBERS),
            };
            assert_eq!(list.len(), expect, "k = {k}, id {id:?}");
            assert!(list.iter().all(|hit| hit.item != *id));
            // The stored-row distance and a scan's distance are one formula.
            if let (true, Some(first)) = (member, list.first()) {
                assert_eq!(
                    index.distance_between(*id, first.item),
                    Some(first.distance)
                );
            }
        }
        // The second ask is served from the memo: same lists.
        assert_eq!(lists, index.neighbors_many(session.engine(), &probe, k));
        let mut digest = Fnv::new();
        digest.hits(&lists);
        rows.push((format!("neighbors_many/k={k}"), digest.0));
    }

    // Free texts: strangers, members (not left out: a text is not a row), a
    // string that is nobody's and the empty string (a zero vector).
    let mut texts: Vec<&str> = mentions[MEMBERS - 5..]
        .iter()
        .map(|&id| world.text(id).expect("a generated mention has text"))
        .collect();
    texts.push("declarative crowdsourcing for prompt engineering, CIDR 2024");
    texts.push("");
    for k in [0, 3, MEMBERS + 1] {
        let lists = index.nearest_texts(&texts, k);
        assert_eq!(lists.len(), texts.len());
        let mut digest = Fnv::new();
        digest.hits(&lists);
        rows.push((format!("nearest_texts/k={k}"), digest.0));
    }

    let mut digest = Fnv::new();
    for i in 0..MEMBERS {
        let (a, b) = (mentions[i], mentions[(i * 13 + 5) % MEMBERS]);
        let d = index.distance_between(a, b).expect("both are indexed");
        digest.word(u64::from(d.to_bits()));
    }
    assert_eq!(index.distance_between(mentions[0], mentions[MEMBERS]), None);
    rows.push(("distance_between".to_owned(), digest.0));

    assert_rows(
        &rows,
        &[
            ("neighbors_many/k=0", 0xa5eccd074c83784d),
            ("neighbors_many/k=1", 0xbe22504d654e149a),
            ("neighbors_many/k=2", 0x22403f3a009c3606),
            ("neighbors_many/k=7", 0x3325c173371d3ba2),
            ("neighbors_many/k=100", 0x7944f4cf742ad939),
            ("neighbors_many/k=101", 0x7944f4cf742ad939),
            ("nearest_texts/k=0", 0x3277be8ede1b7c3e),
            ("nearest_texts/k=3", 0x7aa081f26760e953),
            ("nearest_texts/k=101", 0xbda03cbe07b15310),
            ("distance_between", 0xcda01db32a8378b8),
        ],
    );
}

#[test]
fn blocking_plans_match_the_recorded_outcomes() {
    let (world, mentions) = slice();
    let labeled: Vec<(ItemId, String)> = mentions[..MEMBERS]
        .iter()
        .map(|&id| {
            let venue = world.attr(id, "venue").expect("set by slice()");
            (id, venue.to_owned())
        })
        .collect();

    let mut rows = Vec::new();
    for (noise, profile) in [
        (
            "perfect",
            ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        ),
        ("gpt35_like", ModelProfile::gpt35_like()),
    ] {
        // Each plan on a fresh session, so none borrows another's cache.
        let mut run = |name: &str, query: &dyn Fn(&Session) -> Query| {
            let session = session(&world, &mentions, profile.clone());
            let run = session
                .plan(query(&session))
                .unwrap()
                .execute(&session)
                .unwrap();
            let out = run.into_outcome(|output| output);
            let mut digest = Fnv::new();
            match &out.value {
                PlanOutput::Groups(groups) => digest.groups(groups),
                PlanOutput::Join(join) => {
                    digest.word(join.candidate_pairs as u64);
                    digest.word(join.pruned_pairs as u64);
                    digest.word(join.matches.len() as u64);
                    for (left, right) in &join.matches {
                        digest.word(left.0);
                        digest.word(right.0);
                    }
                }
                PlanOutput::Values(values) => {
                    digest.word(values.len() as u64);
                    for value in values {
                        digest.text(value);
                    }
                }
                other => panic!("{name}: unexpected output {other:?}"),
            }
            rows.push((format!("{noise}/{name}/value"), digest.0));
            rows.push((format!("{noise}/{name}/calls"), out.calls));
            rows.push((format!("{noise}/{name}/cost_bits"), out.cost_usd.to_bits()));
        };
        run("resolve", &|s| s.query(&mentions).resolve(3, 1.2));
        run("join_blocked", &|s| {
            s.query(&mentions[MEMBERS - 10..]).join_with(
                &mentions[..MEMBERS],
                JoinStrategy::Blocked {
                    candidates: 3,
                    max_distance: 1.2,
                },
            )
        });
        run("impute_hybrid", &|s| {
            s.query(&mentions).impute_with(
                "venue",
                labeled.clone(),
                ImputeStrategy::Hybrid { k: 3, shots: 2 },
            )
        });
        run("impute_knn", &|s| {
            s.query(&mentions).impute_with(
                "venue",
                labeled.clone(),
                ImputeStrategy::KnnOnly { k: 3 },
            )
        });
        run("cluster_blocked", &|s| {
            s.query(&mentions).cluster_blocked(6, 2)
        });
    }

    assert_rows(
        &rows,
        &[
            ("perfect/resolve/value", 0xedaa31311dbe9999),
            ("perfect/resolve/calls", 0x00000000000000e6),
            ("perfect/resolve/cost_bits", 0x3fa1b3aeee957470),
            ("perfect/join_blocked/value", 0x3d9c4421fd812f1b),
            ("perfect/join_blocked/calls", 0x000000000000005a),
            ("perfect/join_blocked/cost_bits", 0x3f8c4651f3e89a88),
            ("perfect/impute_hybrid/value", 0x1b6d07ec4cce51fd),
            ("perfect/impute_hybrid/calls", 0x000000000000005b),
            ("perfect/impute_hybrid/cost_bits", 0x3f910539fba450af),
            ("perfect/impute_knn/value", 0x97cad03ff6b44a0a),
            ("perfect/impute_knn/calls", 0x0000000000000000),
            ("perfect/impute_knn/cost_bits", 0x0000000000000000),
            ("perfect/cluster_blocked/value", 0xedaa31311dbe9999),
            ("perfect/cluster_blocked/calls", 0x00000000000000ab),
            ("perfect/cluster_blocked/cost_bits", 0x3f9d4e8fb00bcbe8),
            ("gpt35_like/resolve/value", 0x16057a3c86579769),
            ("gpt35_like/resolve/calls", 0x00000000000000e6),
            ("gpt35_like/resolve/cost_bits", 0x3fa3a8a3f8982caf),
            ("gpt35_like/join_blocked/value", 0x9787b8028d44c900),
            ("gpt35_like/join_blocked/calls", 0x000000000000005a),
            ("gpt35_like/join_blocked/cost_bits", 0x3f8f3a57eaa2a0aa),
            ("gpt35_like/impute_hybrid/value", 0x690e2b89f13f31b8),
            ("gpt35_like/impute_hybrid/calls", 0x000000000000005b),
            ("gpt35_like/impute_hybrid/cost_bits", 0x3f91ee02a77a2ced),
            ("gpt35_like/impute_knn/value", 0x97cad03ff6b44a0a),
            ("gpt35_like/impute_knn/calls", 0x0000000000000000),
            ("gpt35_like/impute_knn/cost_bits", 0x0000000000000000),
            ("gpt35_like/cluster_blocked/value", 0xdfcfc67ba360530d),
            ("gpt35_like/cluster_blocked/calls", 0x00000000000000bf),
            ("gpt35_like/cluster_blocked/cost_bits", 0x3fa19439de481f51),
        ],
    );
}
