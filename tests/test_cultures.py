"""Culture network construction, weighted Google matrix, culture ranking."""
import io
import re

import numpy as np
import pytest

from gmrank.cultures import (CULTURE_CODES, CULTURE_INDEX, N_CULTURES,
                             build_culture_network, culture_google_matrix,
                             culture_ranks, export_matrix_by_rank)
from gmrank.registry import TopList, century_of
from gmrank.tableio import (write_culture_matrix_csv, write_culture_network_csv,
                            write_culture_ranks_csv)

from conftest import GOLDEN, make_registry, rank_columns


def toplist(edition, ids, algorithm="pagerank"):
    return TopList(edition=edition, algorithm=algorithm,
                   entries=tuple((pid, i + 1) for i, pid in enumerate(ids)))


def network_from(weight_map):
    weights = np.zeros((N_CULTURES, N_CULTURES), dtype=np.int64)
    for (a, b), w in weight_map.items():
        weights[CULTURE_INDEX[a], CULTURE_INDEX[b]] = w
    return weights


@pytest.fixture
def mixed_registry():
    rows = []
    for i in range(5):
        rows.append({"person_id": f"fr{i}", "birth_country": "FR",
                     "birth_year": 1700 + i, "gender": "male"})
    for i in range(3):
        rows.append({"person_id": f"de{i}", "birth_country": "DE",
                     "birth_year": 1850 + i, "gender": "male"})
    for i in range(4):
        rows.append({"person_id": f"us{i}", "birth_country": "US",
                     "birth_year": 1900 + i, "gender": "male"})
    rows.append({"person_id": "noyear", "birth_country": "CN",
                 "birth_year": None, "gender": "male"})
    return make_registry(rows, editions=("EN", "FR"))


class TestBuildNetwork:
    def test_foreign_figures_become_weights(self, mixed_registry):
        lists = [toplist("EN", ["fr0", "fr1", "fr2", "fr3", "fr4", "us0"])]
        net = build_culture_network(lists, mixed_registry)
        assert net[CULTURE_INDEX["EN"], CULTURE_INDEX["FR"]] == 5
        assert net[CULTURE_INDEX["EN"], CULTURE_INDEX["DE"]] == 0
        assert net.sum() == 5                   # us0 is EN's own

    def test_all_own_culture_gives_empty_network(self, mixed_registry):
        lists = [toplist("EN", ["us0", "us1", "us2"])]
        net = build_culture_network(lists, mixed_registry)
        assert net.sum() == 0

    def test_century_filter_excludes_late_birth(self, mixed_registry):
        lists = [toplist("EN", ["de0", "fr0"])]       # de0 born 1850 (century 19)
        net = build_culture_network(lists, mixed_registry, before_century=19)
        assert net[CULTURE_INDEX["EN"], CULTURE_INDEX["DE"]] == 0
        # fr0 born 1700, century 17
        assert net[CULTURE_INDEX["EN"], CULTURE_INDEX["FR"]] == 1

    def test_unknown_year_fails_filter(self, mixed_registry):
        lists = [toplist("EN", ["noyear"])]
        unfiltered = build_culture_network(lists, mixed_registry)
        filtered = build_culture_network(lists, mixed_registry, before_century=19)
        assert unfiltered[CULTURE_INDEX["EN"], CULTURE_INDEX["ZH"]] == 1
        assert filtered.sum() == 0

    def test_diagonal_is_zero(self, mixed_registry):
        lists = [toplist("EN", ["us0", "fr0"]), toplist("FR", ["fr1", "us1"])]
        net = build_culture_network(lists, mixed_registry)
        assert np.all(np.diag(net) == 0)

    def test_weight_conservation_under_filters(self, mixed_registry):
        lists = [toplist("EN", ["fr0", "de0", "us0", "noyear"]),
                 toplist("FR", ["fr1", "us1", "de1"])]
        for before in (None, 18, 19, 20):
            net = build_culture_network(lists, mixed_registry,
                                        before_century=before)
            for toplist_obj in lists:
                a = CULTURE_INDEX[toplist_obj.edition]
                expected = 0
                for pid, _ in toplist_obj.entries:
                    person = mixed_registry.get(pid)
                    year = person.birth_year
                    if before is not None:
                        if year is None or century_of(year) >= before:
                            continue
                    expected += person.culture != toplist_obj.edition
                assert int(net[a].sum()) == expected


class TestCultureMatrix:
    def test_all_zero_network_is_uniform(self):
        net = network_from({})
        matrix = culture_google_matrix(net, 0.85)
        assert np.allclose(matrix, 1.0 / 25, atol=1e-15)

    def test_column_sums(self, mixed_registry):
        lists = [toplist("EN", ["fr0", "de0", "us0"]), toplist("FR", ["us1"])]
        net = build_culture_network(lists, mixed_registry)
        matrix = culture_google_matrix(net, 0.85)
        assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12

    def test_hand_expansion_of_weighted_column(self):
        net = network_from({("EN", "FR"): 2, ("EN", "DE"): 1})
        matrix = culture_google_matrix(net, 0.85)
        j = CULTURE_INDEX["EN"]
        base = 0.15 / 25
        expected = np.full(25, base)
        expected[CULTURE_INDEX["FR"]] += 0.85 * 2 / 3
        expected[CULTURE_INDEX["DE"]] += 0.85 * 1 / 3
        assert np.allclose(matrix[:, j], expected, atol=1e-15)

    def test_scaled_weights_same_matrix(self):
        net = network_from({("EN", "FR"): 2, ("FR", "DE"): 5, ("DE", "EN"): 1})
        a = culture_google_matrix(net, 0.85)
        b = culture_google_matrix(net * 7, 0.85)
        assert np.allclose(a, b, atol=1e-15)


class TestCultureRanks:
    def test_uniform_symmetric_network_ties_break_by_code(self):
        weight_map = {}
        for a in CULTURE_CODES:
            for b in CULTURE_CODES:
                if a != b:
                    weight_map[(a, b)] = 3
        ranks = culture_ranks(network_from(weight_map))
        assert np.allclose(ranks.pagerank_probs, 1 / 25, atol=1e-12)
        # ties resolve to alphabetical code order (ascending node id)
        assert [CULTURE_CODES[i] for i in ranks.pagerank_ordering.tolist()] == \
            sorted(CULTURE_CODES)
        assert ranks.k.tolist() == list(range(1, 26))

    def test_toy_network_matches_linear_solve(self):
        net = network_from({("EN", "FR"): 4, ("EN", "DE"): 2, ("FR", "EN"): 3,
                            ("DE", "FR"): 1, ("FR", "DE"): 2})
        matrix = culture_google_matrix(net, 0.85)
        system = matrix - np.eye(25)
        system[-1, :] = 1.0
        rhs = np.zeros(25)
        rhs[-1] = 1.0
        expected = np.linalg.solve(system, rhs)
        ranks = culture_ranks(net)
        assert np.abs(ranks.pagerank_probs - expected).sum() < 1e-10

    def test_rank_orderings_invariant_under_scaling(self, mixed_registry):
        lists = [toplist("EN", ["fr0", "fr1", "de0", "us0"]),
                 toplist("FR", ["us1", "de1", "fr2"])]
        net = build_culture_network(lists, mixed_registry)
        base = culture_ranks(net)
        scaled = culture_ranks(net * 7)
        assert base.k.tolist() == scaled.k.tolist()
        assert base.kstar.tolist() == scaled.kstar.tolist()

    def test_probability_invariants_at_n25(self):
        net = network_from({("EN", "FR"): 2, ("FR", "ZH"): 9})
        ranks = culture_ranks(net)
        for probs in (ranks.pagerank_probs, ranks.cheirank_probs):
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert probs.min() >= 0.15 / 25 - 1e-12

    def test_incoming_links_raise_pagerank(self):
        # every culture quotes FR figures; FR quotes nothing
        weight_map = {(code, "FR"): 5 for code in CULTURE_CODES if code != "FR"}
        ranks = culture_ranks(network_from(weight_map))
        fr = CULTURE_INDEX["FR"]
        assert ranks.k[fr] == 1               # most quoted culture
        assert ranks.kstar[fr] == 25          # least communicative

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        net = np.ones((N_CULTURES, N_CULTURES), dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(
                f"alpha must be in (0, 1), got {alpha}")):
            culture_ranks(net, alpha)


class TestExportMatrix:
    def test_identity_ordering_unchanged(self):
        net = network_from({("EN", "FR"): 1})
        matrix = culture_google_matrix(net, 0.85)
        assert np.array_equal(export_matrix_by_rank(matrix, np.arange(25)), matrix)

    def test_permute_and_invert_roundtrip(self):
        rng = np.random.default_rng(6)
        matrix = rng.random((25, 25))
        perm = rng.permutation(25)
        permuted = export_matrix_by_rank(matrix, perm)
        inverse = np.argsort(perm)
        assert np.array_equal(export_matrix_by_rank(permuted, inverse), matrix)

    def test_permutation_preserves_column_stochasticity(self):
        net = network_from({("EN", "FR"): 2, ("FR", "DE"): 1})
        matrix = culture_google_matrix(net, 0.85)
        ranks = culture_ranks(net)
        permuted = export_matrix_by_rank(matrix, ranks.pagerank_ordering)
        assert np.abs(permuted.sum(axis=0) - 1.0).max() <= 1e-12

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            export_matrix_by_rank(np.eye(25), np.zeros(25, dtype=int))


def test_corpus_outputs_match_golden_files(corpus_toplists, corpus_registry):
    # multi-link weights with non-power-of-two column totals, so the matrix
    # bytes pin the weighted normalization exactly
    net = build_culture_network(corpus_toplists, corpus_registry)
    ranks = culture_ranks(net)
    outputs = {}
    for name, write, payload in (
            ("network", write_culture_network_csv, (net,)),
            ("matrix", write_culture_matrix_csv, (ranks,)),
            ("ranks", write_culture_ranks_csv, (ranks,))):
        stream = io.StringIO()
        write(stream, *payload)
        outputs[name] = stream.getvalue()
    outputs["ranks"] = rank_columns(outputs["ranks"])
    for name, text in outputs.items():
        golden = GOLDEN / f"corpus_culture_{name}.csv"
        assert text == golden.read_text(encoding="utf-8"), golden.name
