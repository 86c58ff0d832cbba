"""Seeded inputs for the three workloads, written as GXL files plus CXL indexes.

cged receives only these files; it loads them through ``load_iam_corpus``
exactly as it would load the IAM Letter and AIDS corpora. Every generator
is a pure function of the seed, so the same seed writes byte-identical
files.
"""

from __future__ import annotations

import random
from pathlib import Path
from xml.sax.saxutils import quoteattr

from cged.dataset import Corpus, split_corpus, synthesize_letter_like
from cged.graph import Graph, Point2D

# letter-grid: Letter-sized coordinate graphs. 160 classes cycle the 8 letter
# templates twenty times, so each seed draws 60 independent 5-node prototypes
# (about 225 graphs); keeping only the 5-node graphs stops the pair sample's
# mix of 4- and 6-node graphs (whose T0 searches differ tenfold in cost) from
# setting the figures. With 15 prototypes a seed (40 classes) the T0 work of
# ten seeds spread 0.11 around its median; with 60 it spreads 0.05.
LETTER_COUNT = 600
LETTER_CLASSES = 160
LETTER_DISTORTION = 0.3
LETTER_NODES = 5

# nn-classify: a stratified half/half split of a letter-like corpus, one
# training and one test graph per class. Only the classes whose template has
# at most NN_MAX_NODES nodes are kept (60 of 96): pairs of 6-node graphs cost
# ten times the median search, and how many of them a seed's contraction
# budgets leave set its figures. Over eight seeds, the time to classify 30
# test graphs serially spread 0.37 with them and 0.08 without. A seed's
# prototypes set how hard its searches are: the time to classify 60 test
# graphs against 60 training graphs spread 0.14 with 30 prototypes (two
# graphs of each per split) and 0.03 with 60. Distortion 0.12 keeps 1-NN accuracy near 0.85,
# where it spreads 0.06 over the seeds, against 0.11 around 0.75 at 0.2.
NN_COUNT = 192
NN_CLASSES = 96
NN_DISTORTION = 0.12
NN_MAX_NODES = 5

# mol-exact: AIDS-like molecules of fixed make-up, each paired with a copy
# that has ATOMS_RELABELLED atoms re-labelled, BONDS_REVALENCED bonds with
# their valence flipped between 1 and 2, and its atoms renumbered. Fixing the
# make-up and the edit count keeps the searches equally deep for every seed.
# 8-atom molecules make searches ten times as deep, and as uneven: the exact
# searches of 60 such pairs spread 0.09 in expansions over eight seeds (0.05
# for 150 7-atom pairs), and the exact/beam cost ratio 0.12 (0.03).
MOL_ATOMS = ("C", "C", "C", "C", "N", "O", "S")
MOL_RING_BONDS = 1
MOL_DOUBLE_BONDS = 2
MOL_MAX_DEGREE = 3
ATOMS_RELABELLED = 3
BONDS_REVALENCED = 2
ELEMENTS = ("C", "N", "O", "S")


def _gxl(g: Graph) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<gxl>",
             f'<graph id={quoteattr(g.name)} edgeids="false" edgemode="undirected">']
    for u, label in g.node_items():
        if isinstance(label, Point2D):
            attrs = (f'<attr name="x"><float>{label.x!r}</float></attr>'
                     f'<attr name="y"><float>{label.y!r}</float></attr>')
        else:
            attrs = f'<attr name="symbol"><string>{label}</string></attr>'
        lines.append(f'<node id="_{u}">{attrs}</node>')
    for u, v, label in g.edges():
        attrs = "" if label is None else f'<attr name="valence"><int>{int(label)}</int></attr>'
        lines.append(f'<edge from="_{u}" to="_{v}">{attrs}</edge>')
    lines += ["</graph>", "</gxl>", ""]
    return "\n".join(lines)


def write_corpus(graphs: list[Graph], directory: Path, index_name: str) -> Path:
    """Write one GXL file per graph and a CXL index listing them in order."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for g in graphs:
        fname = f"{g.name}.gxl"
        (directory / fname).write_text(_gxl(g), encoding="utf-8")
        entries.append(f"<print file={quoteattr(fname)} class={quoteattr(g.class_label)}/>")
    index = directory / index_name
    index.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n<GraphCollection><fingerprints>\n'
        + "\n".join(entries) + "\n</fingerprints></GraphCollection>\n", encoding="utf-8")
    return index


def letter_graphs(seed: int) -> list[Graph]:
    corpus = synthesize_letter_like(seed, LETTER_COUNT, LETTER_CLASSES, LETTER_DISTORTION)
    return [g for g in corpus.graphs if g.order == LETTER_NODES]


def nn_split(seed: int) -> tuple[list[Graph], list[Graph]]:
    corpus = synthesize_letter_like(seed, NN_COUNT, NN_CLASSES, NN_DISTORTION)
    small = [g for g in corpus.graphs if g.order <= NN_MAX_NODES]
    train, test = split_corpus(Corpus(corpus.name, small))
    return train.graphs, test.graphs


def _molecule(rng: random.Random) -> tuple[list[str], dict[tuple[int, int], float]]:
    """A random tree plus ring closures over a shuffled atom list, degree-capped."""
    atoms = list(MOL_ATOMS)
    rng.shuffle(atoms)
    n = len(atoms)
    while True:
        degree = [0] * n
        bonds: set[tuple[int, int]] = set()
        for v in range(1, n):
            u = rng.choice([u for u in range(v) if degree[u] < MOL_MAX_DEGREE])
            bonds.add((u, v))
            degree[u] += 1
            degree[v] += 1
        for _ in range(MOL_RING_BONDS):
            free = [(u, v) for u in range(n) for v in range(u + 2, n)
                    if (u, v) not in bonds
                    and degree[u] < MOL_MAX_DEGREE and degree[v] < MOL_MAX_DEGREE]
            if not free:
                break
            u, v = rng.choice(free)
            bonds.add((u, v))
            degree[u] += 1
            degree[v] += 1
        else:
            break
    doubles = set(rng.sample(sorted(bonds), MOL_DOUBLE_BONDS))
    return atoms, {b: 2.0 if b in doubles else 1.0 for b in sorted(bonds)}


def _build(name: str, atoms: list[str], bonds: dict[tuple[int, int], float],
           order: list[int]) -> Graph:
    """Graph whose node i is atom order[i]."""
    g = Graph(name=name, class_label="mol")
    position = {old: new for new, old in enumerate(order)}
    for old in order:
        g.add_node(atoms[old])
    for (u, v), valence in bonds.items():
        g.add_edge(position[u], position[v], valence)
    return g


def molecule_pairs(seed: int, count: int) -> list[tuple[Graph, Graph]]:
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        atoms, bonds = _molecule(rng)
        edited_atoms = list(atoms)
        for u in rng.sample(range(len(atoms)), ATOMS_RELABELLED):
            edited_atoms[u] = rng.choice([e for e in ELEMENTS if e != atoms[u]])
        edited_bonds = dict(bonds)
        for b in rng.sample(sorted(bonds), BONDS_REVALENCED):
            edited_bonds[b] = 3.0 - bonds[b]
        order = list(range(len(atoms)))
        rng.shuffle(order)
        pairs.append((_build(f"m{k:03d}a", atoms, bonds, list(range(len(atoms)))),
                      _build(f"m{k:03d}b", edited_atoms, edited_bonds, order)))
    return pairs
