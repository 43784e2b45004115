"""Shared fixtures: the paper's ACM Digital Library example (Figures 1-2)
as data model, hypertext model, and seeded running application.

The model builders are the library's own (:mod:`repro.workloads.acm`);
the seed data here is hand-written so tests can assert on exact titles.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.app import WebApplication
from repro.er import ERModel
from repro.webml import WebMLModel
from repro.workloads.acm import build_acm_data_model, build_acm_model

#: ``pytest --hypothesis-profile=sql-grammar tests/test_rdb_sql_grammar.py``
#: draws twenty times tier-1's default of generated expressions (CI)
settings.register_profile("sql-grammar", max_examples=2000)


def build_acm_webml() -> WebMLModel:
    """Figure 1's Volume Page plus list/detail/search/admin flows."""
    return build_acm_model()


def seed_acm(app: WebApplication) -> dict:
    """Seed the classic TODS content; returns the oids by name."""
    oids: dict = {}
    volume_oids = app.seed_entity("Volume", [
        {"number": 27, "year": 2002, "title": "TODS Volume 27"},
        {"number": 28, "year": 2003, "title": "TODS Volume 28"},
    ])
    oids["volumes"] = volume_oids
    issue_oids = app.seed_entity("Issue", [
        {"number": 1, "month": "March", "VolumeToIssue": volume_oids[0]},
        {"number": 2, "month": "June", "VolumeToIssue": volume_oids[0]},
        {"number": 1, "month": "March", "VolumeToIssue": volume_oids[1]},
    ])
    oids["issues"] = issue_oids
    paper_oids = app.seed_entity("Paper", [
        {"title": "Query Optimization Revisited", "pages": 30,
         "IssueToPaper": issue_oids[0]},
        {"title": "Indexing the Web", "pages": 24,
         "IssueToPaper": issue_oids[0]},
        {"title": "Data-Intensive Web Models", "pages": 28,
         "IssueToPaper": issue_oids[1]},
        {"title": "Caching Dynamic Content", "pages": 22,
         "IssueToPaper": issue_oids[2]},
    ])
    oids["papers"] = paper_oids
    author_oids = app.seed_entity("Author", [
        {"name": "S. Ceri"}, {"name": "P. Fraternali"},
    ])
    oids["authors"] = author_oids
    app.connect_instances("Authorship", paper_oids[2], author_oids[0])
    app.connect_instances("Authorship", paper_oids[2], author_oids[1])
    app.seed_entity("User", [
        {"username": "admin", "password": "secret"},
    ])
    return oids


@pytest.fixture
def regex_builds(monkeypatch) -> list:
    """Every ``re.compile`` call made while the test runs (its args)."""
    import re

    calls, real = [], re.compile
    monkeypatch.setattr(
        re, "compile", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    return calls


@pytest.fixture
def acm_data_model() -> ERModel:
    return build_acm_data_model()


@pytest.fixture
def acm_webml() -> WebMLModel:
    return build_acm_webml()


@pytest.fixture
def acm_app() -> WebApplication:
    app = WebApplication(build_acm_webml())
    seed_acm(app)
    app.database.stats.reset()
    app.ctx.stats.reset()
    return app


@pytest.fixture
def acm_oids(acm_app) -> dict:
    """Look the seeded oids back up (stable across runs)."""
    db = acm_app.database
    return {
        "volumes": [r["oid"] for r in db.query("SELECT oid FROM volume ORDER BY oid")],
        "issues": [r["oid"] for r in db.query("SELECT oid FROM issue ORDER BY oid")],
        "papers": [r["oid"] for r in db.query("SELECT oid FROM paper ORDER BY oid")],
        "authors": [r["oid"] for r in db.query("SELECT oid FROM author ORDER BY oid")],
    }
