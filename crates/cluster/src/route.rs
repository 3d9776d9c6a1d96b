//! Sticky routing of resident streams to cluster nodes.
//!
//! A streaming session (`mmjoin serve --stream`) keeps its inner
//! relation resident: the node that built a stream's resident set is
//! the only node that can probe it without re-paying the build. A
//! coordinator dispatching micro-batches therefore needs a *sticky*
//! stream→node map — every batch of stream `hot` must land on the same
//! node — that also survives membership churn gracefully: when a node
//! dies, only the streams it held should move (and re-build on a
//! survivor); every other stream must keep its node.
//!
//! Rendezvous (highest-random-weight) hashing gives exactly that with
//! no shared state: each (stream, node) pair gets a deterministic
//! weight, and the stream lives on its highest-weight live node.
//! Removing a node only re-homes the streams whose maximum it was;
//! adding a node back restores its streams.

/// 64-bit FNV-1a over `bytes` — small, dependency-free, and stable
/// across processes (routing must agree between coordinator restarts).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The rendezvous weight of placing `stream` on `node`.
fn weight(stream: &str, node: &str) -> u64 {
    let mut key = Vec::with_capacity(stream.len() + node.len() + 1);
    key.extend_from_slice(stream.as_bytes());
    key.push(0); // unambiguous boundary: ("ab","c") != ("a","bc")
    key.extend_from_slice(node.as_bytes());
    fnv1a(&key)
}

/// Pick the node that holds `stream`'s resident set: the index into
/// `nodes` with the highest rendezvous weight. Ties break toward the
/// lower index (deterministic). Returns `None` for an empty node list.
pub fn resident_route(stream: &str, nodes: &[String]) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            weight(stream, a)
                .cmp(&weight(stream, b))
                // max_by keeps the *last* maximal element; invert the
                // index order so equal weights favour the lower index.
                .then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ns = nodes(&["a:1", "b:2", "c:3"]);
        for i in 0..64 {
            let stream = format!("s{i}");
            let n = resident_route(&stream, &ns).unwrap();
            assert!(n < ns.len());
            assert_eq!(resident_route(&stream, &ns), Some(n), "sticky");
        }
        assert_eq!(resident_route("x", &[]), None);
    }

    #[test]
    fn removing_a_node_only_moves_its_own_streams() {
        let full = nodes(&["a:1", "b:2", "c:3"]);
        let survivors = nodes(&["a:1", "c:3"]);
        let mut moved = 0;
        for i in 0..256 {
            let stream = format!("s{i}");
            let before = resident_route(&stream, &full).unwrap();
            let after = resident_route(&stream, &survivors).unwrap();
            if full[before] == "b:2" {
                moved += 1; // its node died; it must move somewhere
            } else {
                // Every stream that did not live on b keeps its node.
                assert_eq!(survivors[after], full[before], "{stream}");
            }
        }
        assert!(moved > 0, "some streams lived on the dead node");
    }

    #[test]
    fn placement_spreads_across_nodes() {
        let ns = nodes(&["a:1", "b:2", "c:3", "d:4"]);
        let mut counts = vec![0u32; ns.len()];
        for i in 0..400 {
            counts[resident_route(&format!("s{i}"), &ns).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "node {i} got only {c} of 400 streams");
        }
    }
}
