"""Custody findings kept on the view manager, and the wallet shard filter.

``rapid_flips`` over a :class:`ViewSource` re-walks only assets a CREATE
or TRANSFER applied to since the last call; each case checks the kept
findings against :func:`walk_flips`, the unmemoised reference walk.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.analytics.common import ViewSource
from repro.analytics.fraud import rapid_flips, walk_flips
from repro.views import ViewManager


def block(height, *txs):
    return {"h": height, "txs": [[payload["id"], payload] for payload in txs]}


def create(tx_id, *owners):
    """One output per owner."""
    return {
        "id": tx_id,
        "operation": "CREATE",
        "asset": {"data": {"capabilities": ["cap"]}},
        "inputs": [{"owners_before": [owners[0]]}],
        "outputs": [{"public_keys": [owner], "amount": 1} for owner in owners],
    }


def transfer(tx_id, asset_id, spent, recipient):
    """Spends ``spent`` = (tx id, output index), declaring ``asset_id``:
    the spent output's lineage, or (the lineage rule allows either) the
    id of the transaction that produced it."""
    return {
        "id": tx_id,
        "operation": "TRANSFER",
        "asset": {"id": asset_id},
        "inputs": [
            {
                "owners_before": ["spender"],
                "fulfills": {"transaction_id": spent[0], "output_index": spent[1]},
            }
        ],
        "outputs": [{"public_keys": [recipient], "amount": 1}],
    }


def kept_and_fresh(views):
    """(memoised findings, reference walk) over one manager."""
    source = ViewSource(views)
    return rapid_flips(source), walk_flips(source)


class TestInvalidation:
    def test_idle_refresh_walks_nothing(self):
        views = ViewManager()
        views.apply_block_record("main", block(1, create("c1", "alice"), create("c2", "bob")))
        rapid_flips(ViewSource(views))
        assert views.stats["custody_walks"] == 2
        rapid_flips(ViewSource(views))
        assert views.stats["custody_walks"] == 2
        views.apply_block_record("main", block(2, transfer("t1", "c1", ("c1", 0), "bob")))
        rapid_flips(ViewSource(views))
        assert views.stats["custody_walks"] == 3

    def test_walk_switches_branch_when_output_0_is_spent_late(self):
        """Output 1 is transferred (and looped back) first, so the walk
        runs down branch 1 and finds a flip; spending output 0 later
        moves the walk to branch 0 and the flip must disappear."""
        views = ViewManager()
        history = [
            create("c", "alice", "bob"),
            transfer("t1", "c", ("c", 1), "alice"),
            transfer("t2", "c", ("t1", 0), "bob"),
            transfer("t3", "c", ("c", 0), "carol"),
        ]
        found = []
        for height, payload in enumerate(history, start=1):
            views.apply_block_record("main", block(height, payload))
            kept, fresh = kept_and_fresh(views)
            assert kept == fresh
            found.append(len(kept))
        assert found == [0, 0, 1, 0]

    def test_transfer_applied_before_its_create_on_another_shard(self):
        views = ViewManager()
        assert rapid_flips(ViewSource(views)) == []
        views.apply_block_record(
            "b",
            block(
                1,
                transfer("t1", "c", ("c", 0), "bob"),
                transfer("t2", "c", ("t1", 0), "alice"),
            ),
        )
        assert rapid_flips(ViewSource(views)) == []
        assert views.stats["custody_walks"] == 0
        views.apply_block_record("a", block(1, create("c", "alice")))
        kept, fresh = kept_and_fresh(views)
        assert kept == fresh and [finding.subject for finding in kept] == ["alice"]
        assert views.stats["custody_walks"] == 1

    @staticmethod
    def chain_declaring_predecessors():
        """c -> t1 -> t2 -> t3 where t2 declares ``asset.id = t1`` and t3
        declares ``asset.id = t2``, the ids of the TRANSFERs they spend;
        alice holds the asset again after t2."""
        return [
            create("c", "alice"),
            transfer("t1", "c", ("c", 0), "bob"),
            transfer("t2", "t1", ("t1", 0), "alice"),
            transfer("t3", "t2", ("t2", 0), "carol"),
        ]

    def test_transfer_declaring_the_spent_transfer_one_shard(self):
        views = ViewManager()
        found = []
        for height, payload in enumerate(self.chain_declaring_predecessors(), start=1):
            views.apply_block_record("main", block(height, payload))
            kept, fresh = kept_and_fresh(views)
            assert kept == fresh
            found.append([finding.subject for finding in kept])
        assert found == [[], [], ["alice"], ["alice"]]

    def test_transfer_declaring_the_spent_transfer_two_shards(self):
        """c and t1 on shard a, t2 and t3 on shard b, in every
        interleaving, refreshing after each block."""
        history = self.chain_declaring_predecessors()
        for b_slots in combinations(range(4), 2):
            feeds = {"a": iter(history[:2]), "b": iter(history[2:])}
            heights = {"a": 0, "b": 0}
            views = ViewManager()
            for slot in range(4):
                shard = "b" if slot in b_slots else "a"
                heights[shard] += 1
                views.apply_block_record(shard, block(heights[shard], next(feeds[shard])))
                kept, fresh = kept_and_fresh(views)
                assert kept == fresh, b_slots
            assert [finding.subject for finding in kept] == ["alice"], b_slots

    def test_findings_are_kept_per_max_hops(self):
        views = ViewManager()
        views.apply_block_record(
            "main",
            block(
                1,
                create("c", "alice"),
                transfer("t1", "c", ("c", 0), "bob"),
                transfer("t2", "c", ("t1", 0), "carol"),
                transfer("t3", "c", ("t2", 0), "alice"),
            ),
        )
        source = ViewSource(views)
        assert rapid_flips(source, max_hops=3) == walk_flips(source, max_hops=3) != []
        assert rapid_flips(source, max_hops=2) == walk_flips(source, max_hops=2) == []
        assert rapid_flips(source, max_hops=3) != []

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_any_interleaving_of_two_shards_keeps_the_reference_answer(self, rng):
        """Assets minted on shard a, TRANSFERs of them on shard b, each
        declaring the spent output's lineage or the spent transaction;
        the two feeds interleave at random, with refreshes in between."""
        owners = ["alice", "bob", "carol"]
        shard_a = [create(f"c{n}", owners[n % 3], owners[(n + 1) % 3]) for n in range(4)]
        shard_b = []
        tips = {f"c{n}": (f"c{n}", rng.randrange(2)) for n in range(4)}
        #: tx id -> the asset id its outputs carry (its lineage).
        lineage = {f"c{n}": f"c{n}" for n in range(4)}
        for number in range(10):
            asset = f"c{rng.randrange(4)}"
            spent = tips[asset]
            declared = rng.choice([lineage[spent[0]], spent[0]])
            payload = transfer(f"t{number}", declared, spent, rng.choice(owners))
            lineage[payload["id"]] = declared
            tips[asset] = (payload["id"], 0)
            shard_b.append(payload)
        feeds = {"a": shard_a, "b": shard_b}
        heights = {"a": 0, "b": 0}
        views = ViewManager()
        while any(heights[shard] < len(feed) for shard, feed in feeds.items()):
            shard = rng.choice([s for s, feed in feeds.items() if heights[s] < len(feed)])
            heights[shard] += 1
            views.apply_block_record(shard, block(heights[shard], feeds[shard][heights[shard] - 1]))
            if rng.random() < 0.5:
                kept, fresh = kept_and_fresh(views)
                assert kept == fresh
        kept, fresh = kept_and_fresh(views)
        assert kept == fresh


class TestWalletShardFilter:
    def test_one_shard_serves_every_ref(self):
        views = ViewManager()
        views.apply_block_record("a", block(1, create("c1", "alice"), create("c2", "alice")))
        assert len(views.outputs_for("alice", shard="a")) == 2
        assert views.outputs_for("alice", shard="b") == []

    def test_a_two_shard_manager_still_filters(self):
        views = ViewManager()
        views.apply_block_record("a", block(1, create("c1", "alice")))
        views.apply_block_record("b", block(1, create("c2", "alice")))
        assert [d["transaction_id"] for d in views.outputs_for("alice", shard="a")] == ["c1"]
        assert [d["transaction_id"] for d in views.outputs_for("alice", shard="b")] == ["c2"]

    def test_a_migration_override_still_filters(self):
        views = ViewManager()
        views.apply_block_record("a", block(1, create("c1", "alice"), create("c2", "alice")))
        views.note_migration(["c2"], "b")
        assert [d["transaction_id"] for d in views.outputs_for("alice", shard="a")] == ["c1"]
        assert [d["transaction_id"] for d in views.outputs_for("alice", shard="b")] == ["c2"]
