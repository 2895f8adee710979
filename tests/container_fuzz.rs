//! Fuzzing the checksummed scheme container: no mutation of a saved scheme
//! — a byte flip, a cut or an inserted byte, with the CRC left stale or
//! repaired — may panic the decoder, and a payload it accepts may not panic
//! `verify` or the serve plane's `answer_query` either.

use std::sync::OnceLock;

use graphs::{generators, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::persist::{crc32, decode_container, encode_container, encode_scheme};
use routing::verify::verify;
use routing::{build, BuildParams};
use serve::{Query, QueryKind, Snapshot};
use tree_routing::encode::write_varint;

/// Built schemes the cases mutate: ER graphs at n = 24 … 40, k ∈ {2, 3}.
fn fixtures() -> &'static [(Graph, Vec<u8>)] {
    static FIXTURES: OnceLock<Vec<(Graph, Vec<u8>)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [(24, 2), (32, 3), (40, 2), (36, 3)]
            .into_iter()
            .map(|(n, k)| {
                let mut rng = ChaCha8Rng::seed_from_u64(n as u64 * 10 + k as u64);
                let g = generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=9, &mut rng);
                let scheme = build(&g, &BuildParams::new(k), &mut rng).scheme;
                (g, encode_scheme(&scheme))
            })
            .collect()
    })
}

/// `payload` in a container whose header matches it: the CRC repaired.
fn wrap(payload: &[u8]) -> Vec<u8> {
    let mut buf = b"DRSC".to_vec();
    write_varint(&mut buf, 1);
    write_varint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Apply one mutation: 0 cuts the bytes at `at`, 1 inserts `byte` there,
/// and any other kind flips the bits of `byte` at `at` (flips are the likeliest
/// to leave a payload that still decodes). `at` picks the position as a
/// fraction of the length.
fn mutate(bytes: &mut Vec<u8>, (kind, at, byte): (u8, u32, u8)) {
    let pos = (at as usize * bytes.len()) >> 16;
    match kind {
        0 => bytes.truncate(pos),
        1 => bytes.insert(pos, byte),
        _ if pos < bytes.len() => bytes[pos] ^= byte.max(1),
        _ => {}
    }
}

/// Decode `container`; an accepted scheme for `g`'s n must verify and answer
/// every ordered pair without panicking.
fn exercise(g: &Graph, container: &[u8]) {
    let Ok(scheme) = decode_container(container) else {
        return; // a typed `PersistError`
    };
    if scheme.num_vertices() != g.num_vertices() {
        return;
    }
    let _ = verify(g, &scheme);
    let snap = Snapshot::share(g.clone(), scheme);
    let oracle = DistanceOracle::new(&snap.scheme);
    let mut paths = Vec::new();
    for src in g.vertices() {
        for dst in g.vertices() {
            for kind in [QueryKind::Route, QueryKind::Distance, QueryKind::Trace] {
                let _ = serve::query::answer_query(
                    &snap,
                    &oracle,
                    Query { kind, src, dst },
                    &mut paths,
                );
                paths.clear();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_containers_decode_to_schemes_or_typed_errors(
        fixture in 0usize..4,
        edits in proptest::collection::vec((0u8..8, 0u32..65_536, 0u8..=255), 1..3),
    ) {
        let (g, payload) = &fixtures()[fixture];
        // Mutations anywhere in the container, CRC left stale...
        let mut raw = wrap(payload);
        // ...and in the payload alone, with the CRC repaired around it.
        let mut repaired = payload.clone();
        for &edit in &edits {
            mutate(&mut raw, edit);
            mutate(&mut repaired, edit);
        }
        exercise(g, &raw);
        exercise(g, &wrap(&repaired));
    }
}

#[test]
fn the_unmutated_fixtures_decode_and_verify() {
    for (g, payload) in fixtures() {
        let scheme = decode_container(&wrap(payload)).expect("a well-formed container");
        assert!(verify(g, &scheme).is_empty());
        assert_eq!(encode_container(&scheme).unwrap(), wrap(payload));
    }
}
