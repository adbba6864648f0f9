"""Tests for schedule-tree structure and cloning."""

import pytest

from repro.poly.affine import var
from repro.sched.tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    SequenceNode,
    clone_tree,
)


def small_tree():
    band_a = BandNode({"S0": [var("i")]}, LeafNode())
    band_b = BandNode({"S1": [var("j")]}, LeafNode())
    seq = SequenceNode([FilterNode(["S0"], band_a), FilterNode(["S1"], band_b)])
    dom = DomainNode({"S0": ["i"], "S1": ["j"]}, seq)
    return dom, band_a, band_b, seq


def parent_of(root, target):
    """The node of ``root``'s tree that has ``target`` among its children."""
    return next(n for n in root.walk() if any(c is target for c in n.children))


def mark_above(root, target, name):
    """Insert ``Mark{name}`` between ``target`` and its parent."""
    parent = parent_of(root, target)
    mark = MarkNode(name, target)
    parent.children[parent.children.index(target)] = mark
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
        assert parent_of(dom, mark).child is mark

    def test_render_contains_labels(self):
        dom, *_ = small_tree()
        text = dom.render()
        assert "Domain" in text and "Sequence" in text and "Band" in text


class TestSurgery:
    def test_replace_child(self):
        dom, band_a, band_b, seq = small_tree()
        new = LeafNode()
        filt = seq.children[0]
        filt.set_child(new)
        assert filt.child is new and filt.children == [new]
        assert seq.children[1].child is band_b


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
        ext = ExtensionNode(["S9"], LeafNode())
        dom = DomainNode({"S0": ["i"]}, FilterNode(["S0"], ext))
        copy = clone_tree(dom)
        [cloned] = copy.find_all(ExtensionNode)
        assert cloned.stmt_ids == ["S9"] and cloned.stmt_ids is not ext.stmt_ids
