from __future__ import annotations

from pathlib import Path

import differential

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_compared_with_itself_shows_no_difference():
    summary = differential.compare(ROOT, ROOT, seed=0, count=40)
    assert summary["texts"] == 15 + 6 + 40 + 4  # corpus, index, receiver, dispatch, reads, threaded and casts programs, mutations, generated
    assert summary["results"] == summary["texts"] * len(differential.FORMS) == summary["texts"] * 7
    assert summary["differing_results"] == 0
    assert summary["host_exceptions"] == {"old": 0, "new": 0}
    assert set(summary["worker_s"]) == {"old", "new"} and all(s > 0 for s in summary["worker_s"].values())


def test_the_texts_are_a_function_of_seed_and_count():
    assert differential.make_texts(3, 30) == differential.make_texts(3, 30)
    assert differential.make_texts(3, 30) != differential.make_texts(4, 30)
