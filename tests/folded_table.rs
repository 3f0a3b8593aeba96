//! Differential properties of the symmetry-folded routing table.
//!
//! Two implementations answer the same per-pair questions — direct
//! coordinate routing (`TofuD::hops`/`sharing`, the reference) and the
//! O(#offset-classes) [`FoldedTable`]. These tests pin them together
//! bit-for-bit on random torus/mesh shapes, pin which networks build a
//! pair table at all, pin the closed-form uniform-traffic sweeps to
//! streamed route enumeration, and bound the folded table's memory at
//! machine scale.

use interconnect::fattree::FatTree;
use interconnect::folded::FoldedTable;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::routing::all_pairs_link_load;
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use proptest::prelude::*;

/// A small random Tofu geometry (each dimension 1–3, at most 729 nodes),
/// kept small enough that every ordered pair can be checked.
fn tofu_strategy() -> impl Strategy<Value = TofuD> {
    (
        proptest::array::uniform6(1usize..=3),
        proptest::array::uniform6(any::<bool>()),
    )
        .prop_map(|(dims, periodic)| TofuD::with_dims(dims, periodic))
}

/// Larger random shapes (up to 4096 nodes) where checking every ordered
/// pair is already wasteful; pairs are sampled instead of enumerated.
fn big_tofu_strategy() -> impl Strategy<Value = TofuD> {
    (
        proptest::array::uniform6(1usize..=4),
        proptest::array::uniform6(any::<bool>()),
    )
        .prop_map(|(dims, periodic)| TofuD::with_dims(dims, periodic))
}

proptest! {
    #[test]
    fn folded_matches_direct_on_every_pair(topo in tofu_strategy()) {
        let folded = FoldedTable::build(&topo);
        let n = topo.nodes();
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId(a), NodeId(b));
                prop_assert_eq!(folded.hops(a, b), topo.hops(a, b));
                // Sharing must agree to the bit, not to a tolerance: the
                // palette stores the exact f64s the direct path returns.
                prop_assert_eq!(
                    folded.sharing(a, b).to_bits(),
                    Topology::sharing(&topo, a, b).to_bits()
                );
            }
        }
        prop_assert_eq!(Topology::diameter(&folded), topo.diameter());
    }

    #[test]
    fn folded_matches_direct_on_sampled_pairs_of_larger_shapes(
        topo in big_tofu_strategy(),
        seed in 0u64..1000,
    ) {
        let folded = FoldedTable::build(&topo);
        let n = topo.nodes();
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        for _ in 0..512 {
            let a = NodeId(rng.next_below(n as u32) as usize);
            let b = NodeId(rng.next_below(n as u32) as usize);
            prop_assert_eq!(folded.hops(a, b), topo.hops(a, b));
            prop_assert_eq!(
                folded.sharing(a, b).to_bits(),
                Topology::sharing(&topo, a, b).to_bits()
            );
        }
    }

    #[test]
    fn closed_form_sweeps_match_streamed_route_enumeration(topo in tofu_strategy()) {
        // Link load (max, mean): per-dimension port counts vs. walking
        // every route, as bits.
        let (max, mean) = interconnect::sweep::uniform_link_load(&topo);
        let (want_max, want_mean) = all_pairs_link_load(&topo);
        prop_assert_eq!(max.to_bits(), want_max.to_bits());
        prop_assert_eq!(mean.to_bits(), want_mean.to_bits());
        // Mean hops: closed form vs. the full pair scan, to the bit.
        let all: Vec<NodeId> = (0..topo.nodes()).map(NodeId).collect();
        prop_assert_eq!(
            interconnect::sweep::uniform_mean_hops(&topo).to_bits(),
            interconnect::placement::mean_pairwise_hops(&topo, &all).to_bits()
        );
    }

    #[test]
    fn pair_table_rides_the_fold_on_tofu(topo in tofu_strategy()) {
        // The Topology hook hands TofuD networks the folded table.
        let table = topo.pair_table().expect("TofuD folds its pair table");
        prop_assert_eq!(&table, &FoldedTable::build(&topo));
        let n = topo.nodes();
        for a in 0..n.min(8) {
            for b in 0..n.min(8) {
                let (a, b) = (NodeId(a), NodeId(b));
                prop_assert_eq!(table.hops(a, b), topo.hops(a, b));
                prop_assert_eq!(
                    table.sharing(a, b).to_bits(),
                    Topology::sharing(&topo, a, b).to_bits()
                );
            }
        }
    }
}

#[test]
fn tofu_network_builds_only_the_folded_table_and_fat_tree_none() {
    // TofuD: the network's memo is the fold, built once on request.
    let tofu = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    assert!(
        tofu.table_if_built().is_none(),
        "no table before the first request"
    );
    let built = tofu.routing_table().expect("TofuD folds its pair table");
    assert_eq!(built, &FoldedTable::build(&TofuD::cte_arm()));
    assert!(std::ptr::eq(
        built,
        tofu.table_if_built().expect("memoized")
    ));

    // Fat tree: direct hops/sharing are already O(1), so no table at all
    // and path costs come straight from the topology.
    let topo = FatTree::with_geometry(64, 16, 2.0);
    assert!(topo.pair_table().is_none());
    let tree = Network::new(topo.clone(), LinkModel::omnipath());
    assert!(tree.routing_table().is_none());
    assert!(tree.table_if_built().is_none());
    for (a, b) in [(0, 1), (0, 17), (63, 2)] {
        let (a, b) = (NodeId(a), NodeId(b));
        let cost = tree.path_cost(a, b);
        assert_eq!(cost.hops, topo.hops(a, b));
        assert_eq!(cost.sharing.to_bits(), topo.sharing(a, b).to_bits());
    }
}

#[test]
fn folded_table_at_full_fugaku_scale_stays_under_ten_megabytes() {
    // 158 976 nodes: a dense all-pairs memo would be ~2 B × n² ≈ 50 GB
    // per plane. The fold must keep the whole thing under 10 MB.
    let topo = TofuD::with_dims(
        [24, 23, 24, 2, 3, 2],
        [true, true, true, false, true, false],
    );
    let folded = FoldedTable::build(&topo);
    assert_eq!(folded.nodes(), 158_976);
    assert!(
        folded.memory_bytes() < 10 * 1024 * 1024,
        "folded table is {} bytes",
        folded.memory_bytes()
    );
    // Spot-check correctness at scale against direct routing.
    let mut rng = simkit::rng::Pcg32::seeded(7);
    for _ in 0..2048 {
        let a = NodeId(rng.next_below(158_976) as usize);
        let b = NodeId(rng.next_below(158_976) as usize);
        assert_eq!(folded.hops(a, b), topo.hops(a, b));
        assert_eq!(
            folded.sharing(a, b).to_bits(),
            Topology::sharing(&topo, a, b).to_bits()
        );
    }
}
