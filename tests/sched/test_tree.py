"""Tests for schedule-tree structure, surgery and cloning."""

import pytest

from repro.poly.affine import var
from repro.poly.sets import Space
from repro.sched.tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    SequenceNode,
    clone_tree,
    find_parent,
    replace_child,
)


def small_tree():
    band_a = BandNode({"S0": [var("i")]}, LeafNode())
    band_b = BandNode({"S1": [var("j")]}, LeafNode())
    seq = SequenceNode([FilterNode(["S0"], band_a), FilterNode(["S1"], band_b)])
    dom = DomainNode({"S0": ["i"], "S1": ["j"]}, seq)
    return dom, band_a, band_b, seq


def mark_above(root, target, name):
    """Insert ``Mark{name}`` between ``target`` and its parent, as the
    passes do with ``find_parent`` and ``replace_child``."""
    mark = MarkNode(name, target)
    replace_child(find_parent(root, target), target, mark)
    return mark


def marks(root):
    return [m.name for m in root.find_all(MarkNode)]


class TestStructure:
    def test_statements_enumeration(self):
        dom, *_ = small_tree()
        assert list(dom.dims) == ["S0", "S1"]
        assert [f.stmt_ids for f in dom.find_all(FilterNode)] == [("S0",), ("S1",)]

    def test_band_row_alignment_enforced(self):
        with pytest.raises(ValueError):
            BandNode({"S0": [var("i")], "S1": [var("j"), var("k")]})

    def test_sequence_children_must_be_filters(self):
        with pytest.raises(TypeError):
            SequenceNode([LeafNode()])

    def test_tile_sizes_arity_checked(self):
        with pytest.raises(ValueError):
            BandNode({"S0": [var("i")]}, tile_sizes=[4, 4])

    def test_find_mark(self):
        dom, band_a, *_ = small_tree()
        mark = mark_above(dom, band_a, "local_UB")
        assert marks(dom) == ["local_UB"] and mark.child is band_a
        assert find_parent(dom, mark).child is mark

    def test_render_contains_labels(self):
        dom, *_ = small_tree()
        text = dom.render()
        assert "Domain" in text and "Sequence" in text and "Band" in text


class TestSurgery:
    def test_find_parent(self):
        dom, band_a, band_b, seq = small_tree()
        assert find_parent(dom, seq) is dom
        assert find_parent(dom, dom) is None

    def test_replace_child(self):
        dom, band_a, band_b, seq = small_tree()
        new = LeafNode()
        filt = seq.children[0]
        replace_child(filt, band_a, new)
        assert filt.child is new

    def test_replace_child_missing_raises(self):
        dom, band_a, *_ = small_tree()
        with pytest.raises(ValueError):
            replace_child(dom, band_a, LeafNode())


class TestClone:
    def test_clone_is_deep_for_structure(self):
        dom, band_a, *_ = small_tree()
        copy = clone_tree(dom)
        # Mutating the copy must not affect the original.
        mark_above(copy, copy.find_all(BandNode)[0], "skipped")
        assert marks(dom) == []
        assert marks(copy) == ["skipped"]

    def test_clone_preserves_band_attributes(self):
        band = BandNode(
            {"S0": [var("i"), var("j")]},
            LeafNode(),
            permutable=True,
            coincident=[True, False],
            tile_sizes=[8, 4],
        )
        dom = DomainNode({"S0": ["i", "j"]}, FilterNode(["S0"], band))
        copy = clone_tree(dom)
        band_c = copy.find_all(BandNode)[0]
        assert band_c.permutable
        assert band_c.coincident == [True, False]
        assert band_c.tile_sizes == [8, 4]

    def test_clone_extension_node(self):
        from repro.poly.maps import BasicMap

        ext = ExtensionNode(
            {"S9": BasicMap(Space("T", ["o0"]), Space("S9", ["i"]), [])},
            LeafNode(),
        )
        dom = DomainNode({"S0": ["i"]}, FilterNode(["S0"], ext))
        copy = clone_tree(dom)
        assert copy.find_all(ExtensionNode)
