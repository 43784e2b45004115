"""A small bookstore application — the quickstart workload.

Covers the everyday WebML vocabulary on a familiar domain: browse by
genre, book details with authors, keyword search, block-scrolling the
catalogue, and a protected back office managing the catalogue through
create/modify/delete/connect operations.
"""

from __future__ import annotations

from repro.app import WebApplication
from repro.er import ERModel
from repro.webml import (
    AttributeCondition,
    LinkKind,
    Selector,
    WebMLModel,
)


def build_bookstore_data_model() -> ERModel:
    model = ERModel(name="bookstore")
    model.entity("Book", [("title", "VARCHAR(160)", True),
                          ("price", "FLOAT"), ("year", "INTEGER"),
                          ("blurb", "TEXT")])
    model.entity("Writer", [("name", "VARCHAR(80)", True)])
    model.entity("Genre", [("name", "VARCHAR(60)", True)])
    model.entity("Staff", [("username", "VARCHAR(40)", True),
                           ("password", "VARCHAR(40)", True)])
    model.relate("GenreToBook", "Genre", "Book", "1:N",
                 inverse_name="BookToGenre")
    model.relate("WrittenBy", "Book", "Writer", "N:M",
                 inverse_name="Wrote")
    return model


def build_bookstore_model() -> WebMLModel:
    model = WebMLModel(build_bookstore_data_model(), name="bookstore")
    shop = model.site_view("shop")

    home = shop.page("Home", home=True, landmark=True)
    genres = home.index_unit("Genres", "Genre", display_attributes=["name"],
                             order_by=[("name", False)])
    search_form = home.entry_unit("Search", fields=[("keyword", "text", True)])

    genre_page = shop.page("Genre Page")
    genre_data = genre_page.data_unit("Genre", "Genre",
                                      display_attributes=["name"])
    genre_books = genre_page.index_unit(
        "Books in genre", "Book",
        selector=Selector.over_role("GenreToBook", "genre"),
        display_attributes=["title", "price"],
        order_by=[("title", False)],
    )

    book_page = shop.page("Book Page")
    book_data = book_page.data_unit("Book", "Book")
    book_authors = book_page.index_unit(
        "Authors", "Writer",
        selector=Selector.over_role("WrittenBy", "book"),
        display_attributes=["name"],
    )

    results_page = shop.page("Search Results")
    hits = results_page.index_unit(
        "Hits", "Book",
        selector=Selector([AttributeCondition("title", "like",
                                              parameter="keyword")]),
        display_attributes=["title", "price"],
    )

    catalogue_page = shop.page("Catalogue", landmark=True)
    catalogue_page.scroller_unit(
        "All books", "Book", block_size=3,
        display_attributes=["title", "price"],
        order_by=[("title", False)],
    )

    model.link(genres, genre_data, params=[("oid", "oid")], label="browse")
    model.link(genre_data, genre_books, kind=LinkKind.TRANSPORT,
               params=[("oid", "genre")])
    model.link(genre_books, book_data, params=[("oid", "oid")],
               label="details")
    model.link(book_data, book_authors, kind=LinkKind.TRANSPORT,
               params=[("oid", "book")])
    model.link(search_form, hits, params=[("keyword", "keyword")],
               label="search")
    model.link(hits, book_data, params=[("oid", "oid")])

    _add_back_office(model)
    return model


def _add_back_office(model: WebMLModel) -> None:
    office = model.site_view("backoffice", requires_login=True)
    desk = office.page("Desk", home=True)
    book_list = desk.index_unit("Catalogue", "Book",
                                display_attributes=["title", "price"])
    new_book = desk.entry_unit(
        "New book",
        fields=[("title", "text", True), ("price", "text"), ("year", "text")],
    )
    writer_list = desk.index_unit("Writers", "Writer",
                                  display_attributes=["name"])

    login_page = office.page("Sign in")
    credentials = login_page.entry_unit(
        "Credentials",
        fields=[("username", "text", True), ("password", "password", True)],
    )

    create_book = office.create_op("CreateBook", "Book",
                                   ["title", "price", "year"])
    drop_book = office.delete_op("DropBook", "Book")
    reprice = office.modify_op("Reprice", "Book", ["price"])
    credit = office.connect_op("CreditWriter", "WrittenBy")
    login = office.login_op("Login", user_entity="Staff")
    logout = office.logout_op("Logout")

    model.link(new_book, create_book,
               params=[("title", "title"), ("price", "price"),
                       ("year", "year")])
    model.link(create_book, desk, kind=LinkKind.OK)
    model.link(create_book, desk, kind=LinkKind.KO)
    model.link(book_list, drop_book, params=[("oid", "oid")], label="drop")
    model.link(drop_book, desk, kind=LinkKind.OK)
    model.link(drop_book, desk, kind=LinkKind.KO)
    model.link(book_list, reprice, params=[("oid", "oid")], label="reprice")
    reprice_entry = desk.entry_unit("New price", fields=[("price", "text", True)])
    model.link(reprice_entry, reprice, params=[("price", "price")])
    model.link(reprice, desk, kind=LinkKind.OK)
    model.link(reprice, desk, kind=LinkKind.KO)
    model.link(book_list, credit, params=[("oid", "source_oid")],
               label="credit")
    model.link(writer_list, credit, params=[("oid", "target_oid")])
    model.link(credit, desk, kind=LinkKind.OK)
    model.link(credit, desk, kind=LinkKind.KO)
    model.link(credentials, login,
               params=[("username", "username"), ("password", "password")])
    model.link(login, desk, kind=LinkKind.OK)
    model.link(login, login_page, kind=LinkKind.KO)
    model.link(desk, logout)
    model.link(logout, login_page, kind=LinkKind.OK)


def seed_bookstore(app: WebApplication) -> dict:
    genres = app.seed_entity("Genre", [
        {"name": "Databases"}, {"name": "Web Engineering"},
        {"name": "Software Design"},
    ])
    books = app.seed_entity("Book", [
        {"title": "Building Data-Intensive Web Applications", "price": 55.0,
         "year": 2002, "GenreToBook": genres[1]},
        {"title": "Design Patterns", "price": 49.5, "year": 1995,
         "GenreToBook": genres[2]},
        {"title": "Principles of Database Systems", "price": 60.0,
         "year": 1998, "GenreToBook": genres[0]},
        {"title": "Web Caching Explained", "price": 35.0, "year": 2001,
         "GenreToBook": genres[1]},
        {"title": "Mastering Enterprise JavaBeans", "price": 45.0,
         "year": 2001, "GenreToBook": genres[2]},
    ])
    writers = app.seed_entity("Writer", [
        {"name": "S. Ceri"}, {"name": "P. Fraternali"}, {"name": "E. Gamma"},
    ])
    app.connect_instances("WrittenBy", books[0], writers[0])
    app.connect_instances("WrittenBy", books[0], writers[1])
    app.connect_instances("WrittenBy", books[1], writers[2])
    app.seed_entity("Staff", [{"username": "clerk", "password": "books"}])
    return {"genres": genres, "books": books, "writers": writers}


def build_bookstore_application(view_renderer=None,
                                bean_cache=None) -> tuple[WebApplication, dict]:
    app = WebApplication(build_bookstore_model(), view_renderer=view_renderer,
                         bean_cache=bean_cache)
    oids = seed_bookstore(app)
    app.ctx.stats.reset()
    app.database.stats.reset()
    return app, oids


def bean_content_renderer(page_result, request, controller) -> str:
    """A view that serializes bean *content* as JSON, so consistency
    probes (E13's mixed workload, E21's staleness oracle) can read the
    served values straight out of the response body."""
    import json

    payload = {
        bean.name: {"current": bean.current, "from_cache": bean.from_cache}
        for bean in page_result.beans.values()
    }
    return json.dumps(payload, default=str)


def build_bookstore_replica(database) -> WebApplication:
    """Fleet-worker factory: the bookstore stack over a replica database.

    Referenced by dotted path
    (``"repro.workloads.bookstore:build_bookstore_replica"``) from
    :class:`repro.appserver.fleet.FleetSupervisor`.  No seeding — the
    data arrived via snapshot bootstrap, and the replica engine would
    refuse the writes anyway.  Replayed WAL records invalidate the
    worker's own cache levels like any commit.
    """
    return WebApplication(build_bookstore_model(),
                          view_renderer=bean_content_renderer,
                          database=database)
