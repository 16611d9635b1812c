"""Group-algebra p-blocks from character tables, checked against a
from-scratch enumeration of the binary tetrahedral group, plus coset
enumeration oracles for the shipped group orders, a pairwise-congruence
oracle for the residue-keyed p_blocks, and connected components by set
merging for Partition.generated_by."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import cyclo, groupblocks
from heckeblocks.cyclo import CycInt, in_prime_ideal, prime_handle
from heckeblocks.groupblocks import (
    CharacterTable,
    Partition,
    central_character,
    galois_close,
    join,
    p_blocks,
)

from golden_jobs import (
    CYCLIC_CASES,
    cyclic_blocks,
    cyclic_table,
    load_golden,
)


# ---------------------------------------------------------------------------
# oracle 1: the 2x2 determinant-1 matrix group over GF(3), built by BFS
# ---------------------------------------------------------------------------

IDENT = (1, 0, 0, 1)


def mat_mul3(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % 3,
        (a[0] * b[1] + a[1] * b[3]) % 3,
        (a[2] * b[0] + a[3] * b[2]) % 3,
        (a[2] * b[1] + a[3] * b[3]) % 3,
    )


def mat_inv3(a):
    # determinant is 1 throughout the group
    return (a[3] % 3, -a[1] % 3, -a[2] % 3, a[0] % 3)


def enumerate_sl23():
    gens = [(0, 1, 2, 0), (1, 1, 0, 1)]
    seen = {IDENT}
    frontier = [IDENT]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = mat_mul3(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen)


def element_order(g):
    power, k = g, 1
    while power != IDENT:
        power = mat_mul3(power, g)
        k += 1
    return k


def conjugacy_classes(elements):
    classes = []
    assigned = set()
    for g in elements:
        if g in assigned:
            continue
        orbit = {mat_mul3(mat_mul3(h, g), mat_inv3(h)) for h in elements}
        classes.append(sorted(orbit))
        assigned |= orbit
    return classes


@pytest.fixture(scope="module")
def sl23_classes():
    elements = enumerate_sl23()
    assert len(elements) == 24
    return conjugacy_classes(elements)


def test_enumerated_class_data_matches_stored_table(sl23_classes, g4):
    table = g4.character_table
    # class sizes and representative orders, compared as multisets
    enumerated = sorted(
        (len(cls), element_order(cls[0])) for cls in sl23_classes
    )
    stored = sorted(
        (size, int(label.rstrip("ab")))
        for size, label in zip(table.class_sizes, table.class_order_labels)
    )
    assert enumerated == stored


def test_stored_table_first_orthogonality(g4):
    table = g4.character_table
    order = table.group_order
    ncls = len(table.class_sizes)
    for i in range(table.n_chars):
        for j in range(table.n_chars):
            total = CycInt.rational(0)
            for c in range(ncls):
                # complex conjugation is the Galois map zeta -> zeta^-1
                conj = table.values[j][c].galois_conjugate(
                    table.conductor - 1
                )
                total = total + table.values[i][c] * conj * \
                    table.class_sizes[c]
            expected = order if i == j else 0
            assert total == CycInt.rational(expected), (i, j)


def test_central_characters_are_integral(g4):
    table = g4.character_table
    for chi in range(table.n_chars):
        for c in range(len(table.class_sizes)):
            central_character(table, chi, c)  # raises if non-integral


def test_g4_two_and_three_blocks(g4):
    table = g4.character_table
    assert p_blocks(table, 2).as_lists() == [[1, 2, 3, 4, 5, 6, 7]]
    assert p_blocks(table, 3).as_lists() == [[1, 2, 3], [4, 5, 6], [7]]
    # p not dividing the group order: all singletons
    assert p_blocks(table, 5) == Partition.singletons(7)


def test_galois_closure_is_stable(g4):
    table = g4.character_table
    pi = p_blocks(table, 3)
    assert galois_close(table, pi) == pi


def test_p_blocks_read_the_row_permutations_stored_at_load(g4, monkeypatch):
    """Loading G4 computed its row permutations; p_blocks and galois_close
    derive none again, and give the partitions the benchmark recorded."""
    golden = load_golden()

    def derive_again(t):
        raise AssertionError("row permutations derived after load")

    monkeypatch.setattr(groupblocks, "_row_permutations", derive_again)
    table = g4.character_table
    expected = {2: golden["p_blocks/G4/2"], 3: golden["p_blocks/G4/3"],
                5: Partition.singletons(7).as_lists()}
    assert expected[2] == [[1, 2, 3, 4, 5, 6, 7]]
    assert expected[3] == [[1, 2, 3], [4, 5, 6], [7]]
    for p, parts in expected.items():
        pi = p_blocks(table, p)
        assert pi.as_lists() == parts
        assert galois_close(table, pi) == pi


def test_p_blocks_read_the_central_characters_stored_at_load(g4, monkeypatch):
    """Loading G4 computed its central characters; p_blocks computes none
    again, and gives the partitions the benchmark recorded."""
    golden = load_golden()

    def compute_again(t, chi_index, class_index):
        raise AssertionError("central character computed after load")

    monkeypatch.setattr(groupblocks, "central_character", compute_again)
    table = g4.character_table
    expected = {2: golden["p_blocks/G4/2"], 3: golden["p_blocks/G4/3"],
                5: Partition.singletons(7).as_lists()}
    assert expected[2] == [[1, 2, 3, 4, 5, 6, 7]]
    assert expected[3] == [[1, 2, 3], [4, 5, 6], [7]]
    for p, parts in expected.items():
        assert p_blocks(table, p).as_lists() == parts


def test_p_blocks_reduce_each_row_in_one_residues_call(g4, monkeypatch):
    """p_blocks reduces each character's whole row of central characters in
    one cyclo.residues call, none when p does not divide |G|, and gives the
    partitions the benchmark recorded."""
    golden = load_golden()
    rows = []

    def counted(elements, h):
        rows.append(tuple(elements))
        return cyclo.residues(elements, h)

    monkeypatch.setattr(groupblocks, "residues", counted)
    table = g4.character_table
    expected = {2: golden["p_blocks/G4/2"], 3: golden["p_blocks/G4/3"],
                5: Partition.singletons(7).as_lists()}
    for p, parts in expected.items():
        rows.clear()
        assert p_blocks(table, p).as_lists() == parts
        assert rows == ([] if p == 5 else list(table.central_characters)), p


@pytest.mark.parametrize("n, p", CYCLIC_CASES)
def test_cyclic_group_blocks_match_the_closed_form(n, p):
    """C_n's central characters lie in Z[zeta_d] for every d | n, 1
    included, so p_blocks lifts them to the table's conductor."""
    assert p_blocks(cyclic_table(n), p).as_lists() == cyclic_blocks(n, p)


# ---------------------------------------------------------------------------
# oracle 2: Todd-Coxeter coset enumeration for the shipped group orders
# ---------------------------------------------------------------------------


def coset_enumeration(n_gens, relators, bound=2000):
    """Coset enumeration over the trivial subgroup (HLT with gap filling).

    Generators are 0..n_gens-1 and inverses are ~g; relators are words over
    those symbols.  Every generator must start some relator.  Returns the
    group order."""
    n_sym = 2 * n_gens

    def sym(letter):
        return letter if letter >= 0 else n_gens - letter - 1

    def inv(symbol):
        return symbol + n_gens if symbol < n_gens else symbol - n_gens

    table = [[None] * n_sym]
    parent = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def merge(x, y):
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for s in range(n_sym):
                t = table[y][s]
                table[y][s] = None
                if t is None:
                    continue
                if table[x][s] is None:
                    table[x][s] = t
                    tf = find(t)
                    if table[tf][inv(s)] is None:
                        table[tf][inv(s)] = x
                    else:
                        queue.append((table[tf][inv(s)], x))
                else:
                    queue.append((table[x][s], t))

    def set_entry(a, s, b):
        a, b = find(a), find(b)
        if table[a][s] is None:
            table[a][s] = b
        elif find(table[a][s]) != b:
            merge(table[a][s], b)
            return
        a, b = find(a), find(b)
        if table[b][inv(s)] is None:
            table[b][inv(s)] = a
        elif find(table[b][inv(s)]) != a:
            merge(table[b][inv(s)], a)

    def define(c, s):
        if len(table) > bound:
            raise RuntimeError("enumeration exceeded the coset bound")
        table.append([None] * n_sym)
        new = len(table) - 1
        parent.append(new)
        table[c][s] = new
        table[new][inv(s)] = c

    def scan_and_fill(c, word):
        while True:
            c = find(c)
            f, i = c, 0
            while i < len(word):
                nxt = table[f][sym(word[i])]
                if nxt is None:
                    break
                f, i = find(nxt), i + 1
            if i == len(word):
                merge(f, c)
                return
            b, j = c, len(word)
            while j > i:
                prev = table[b][inv(sym(word[j - 1]))]
                if prev is None:
                    break
                b, j = find(prev), j - 1
            if j == i:
                merge(f, b)
                return
            if j == i + 1:
                set_entry(f, sym(word[i]), b)
                return
            define(f, sym(word[i]))

    cursor = 0
    while cursor < len(table):
        if find(cursor) == cursor:
            for word in relators:
                scan_and_fill(cursor, word)
                if find(cursor) != cursor:
                    break
        cursor += 1
    live = {find(c) for c in range(len(table))}
    # enumeration must be complete on live cosets
    assert all(table[c][s] is not None for c in live for s in range(n_sym))
    return len(live)


def test_coset_enumeration_on_known_small_groups():
    # cyclic of order 6: <s | s^6>
    assert coset_enumeration(1, [[0] * 6]) == 6
    # symmetric group S3: <s,t | s^2, t^2, (st)^3>
    assert coset_enumeration(2, [[0, 0], [1, 1], [0, 1] * 3]) == 6
    # quaternion group Q8: <s,t | s^4, s^2 t^-2, t^-1 s t s>
    assert coset_enumeration(2, [[0] * 4, [0, 0, ~1, ~1],
                                 [~1, 0, 1, 0], [1, 1, 1, 1]]) == 8


def test_shipped_group_orders_match_presentations(g4, g7):
    # <s,t | s^3, t^3, sts = tst>
    assert coset_enumeration(
        2, [[0] * 3, [1] * 3, [0, 1, 0, ~1, ~0, ~1]]
    ) == g4.group_order == 24
    # <s,t,u | s^2, t^3, u^3, stu = tus = ust>
    assert coset_enumeration(
        3,
        [[0] * 2, [1] * 3, [2] * 3,
         [0, 1, 2, ~0, ~2, ~1],   # stu = tus
         [0, 1, 2, ~1, ~0, ~2]],  # stu = ust
    ) == g7.group_order == 144


# ---------------------------------------------------------------------------
# degenerate and adversarial inputs
# ---------------------------------------------------------------------------


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition.of([[1, 2], [2, 3]], 3)
    with pytest.raises(ValueError):
        Partition.of([[1, 2]], 3)


def test_cyclic_three_table_blocks():
    w = CycInt.zeta(3)
    w2 = w * w
    one = CycInt.rational(1)
    table = CharacterTable.of(
        conductor=3,
        class_sizes=(1, 1, 1),
        values=(
            (one, one, one),
            (one, w, w2),
            (one, w2, w),
        ),
    )
    assert p_blocks(table, 3).as_lists() == [[1, 2, 3]]
    assert p_blocks(table, 2) == Partition.singletons(3)


def test_equal_rows_are_rejected():
    one = CycInt.rational(1)
    with pytest.raises(ValueError, match="two rows are equal"):
        CharacterTable.of(conductor=1, class_sizes=(1, 1),
                          values=((one, one), (one, one)))


def test_missing_galois_image_is_rejected():
    """C5 with chi_1 at g^2 set to 1: sigma = 2 sends the changed row
    (1, z, 1, z^3, z^4) to (1, z^2, 1, z, z^3), which is no row."""
    values = list(cyclic_table(5).values)
    z, one = CycInt.zeta(5), CycInt.rational(1)
    values[1] = (one, z, one, z ** 3, z ** 4)
    with pytest.raises(ValueError, match="Galois image row not found"):
        CharacterTable.of(conductor=5, class_sizes=(1,) * 5,
                          values=tuple(values))


# ---------------------------------------------------------------------------
# the residue-keyed p_blocks against the pairwise scan it replaced
# ---------------------------------------------------------------------------


def _oracle_galois_close(t, pi):
    """The join of the images of pi under every Galois row permutation,
    each image validated as a partition."""
    n = t.conductor
    rows = {tuple(v.lift(n).coeffs for v in row): i
            for i, row in enumerate(t.values)}
    images = []
    for sigma in range(1, n + 1):
        if gcd(sigma, n) != 1:
            continue
        perm = {i + 1: rows[tuple(v.lift(n).galois_conjugate(sigma).coeffs
                                  for v in row)] + 1
                for i, row in enumerate(t.values)}
        images.append(Partition.of(
            [[perm[i] for i in part] for part in pi.parts], pi.size))
    return join(images)


def _oracle_p_blocks(t, p):
    """Each character joins the first group whose representative's central
    characters are congruent to its own at the prime ideal, tested by
    in_prime_ideal on the differences; then the Galois closure."""
    if t.group_order % p:
        return Partition.singletons(t.n_chars)
    handle = prime_handle(p, t.conductor)
    groups = []
    for chi in range(t.n_chars):
        omegas = [central_character(t, chi, c)
                  for c in range(len(t.class_sizes))]
        for ref, members in groups:
            if all(in_prime_ideal(a - b, handle)
                   for a, b in zip(omegas, ref)):
                members.append(chi + 1)
                break
        else:
            groups.append((omegas, [chi + 1]))
    rough = Partition.of([members for _, members in groups], t.n_chars)
    return _oracle_galois_close(t, rough)


_HAND_BUILT = {
    "cyclic-3": lambda: cyclic_table(3),
    "C5": lambda: cyclic_table(5),
    "C15": lambda: cyclic_table(15),
}


@pytest.mark.parametrize("name, p", [
    *[("G4", p) for p in (2, 3, 5, 7)],
    *[("cyclic-3", p) for p in (2, 3)],
    *[("C5", p) for p in (2, 3, 5)],
    *[("C15", p) for p in (2, 3, 5)],
])
def test_p_blocks_agree_with_the_pairwise_oracle(g4, name, p):
    table = g4.character_table if name == "G4" else _HAND_BUILT[name]()
    assert p_blocks(table, p) == _oracle_p_blocks(table, p)


@pytest.mark.parametrize("name", ["G4", *_HAND_BUILT])
def test_stored_central_characters_match_central_character(g4, name):
    table = g4.character_table if name == "G4" else _HAND_BUILT[name]()
    assert len(table.central_characters) == table.n_chars
    for chi, row in enumerate(table.central_characters):
        assert len(row) == len(table.class_sizes)
        for c, omega in enumerate(row):
            assert omega == central_character(table, chi, c), (chi, c)


def test_galois_close_agrees_with_the_joined_images():
    table = cyclic_table(5)
    # row k goes to row sigma * k mod 5: {chi_1, chi_4} is an orbit of
    # sigma = 4 and meets {chi_2, chi_3} under sigma = 2
    for parts, expected in [
        ([[1, 2], [3], [4], [5]], [[1, 2, 3, 4, 5]]),
        ([[1], [2, 5], [3], [4]], [[1], [2, 5], [3, 4]]),
        ([[1], [2], [3], [4], [5]], [[1], [2], [3], [4], [5]]),
    ]:
        pi = Partition.of(parts, 5)
        assert galois_close(table, pi).as_lists() == expected
        assert galois_close(table, pi) == _oracle_galois_close(table, pi)


# ---------------------------------------------------------------------------
# generated_by against connected components found by merging sets
# ---------------------------------------------------------------------------

_GROUPS = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(1, n), max_size=5),
                         max_size=6)))


@given(_GROUPS)
@settings(max_examples=300, deadline=None)
def test_generated_by_gives_the_merged_components(case):
    """Empty lists, empty and one-element groups, repeated indices and
    overlapping groups: each group's sets merge into one, and the parts
    come out sorted, ordered by least element."""
    n, groups = case
    components = [{i} for i in range(1, n + 1)]
    for group in groups:
        hit = [c for c in components if c & set(group)]
        if hit:
            components = [c for c in components if c not in hit]
            components.append(set().union(*hit))
    expected = tuple(tuple(sorted(c)) for c in sorted(components, key=min))
    assert Partition.generated_by(groups, n).parts == expected
