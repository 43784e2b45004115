"""Tests for the ER model, its validation, XML persistence, and the
ER→relational mapping."""

import pytest

from repro.er import (
    Attribute,
    Cardinality,
    Entity,
    ERModel,
    Relationship,
    er_model_from_xml,
    er_model_to_xml,
    map_to_relational,
)
from repro.errors import ERModelError, ValidationError
from repro.rdb import Database


def acm_model() -> ERModel:
    """The Figure 1/2 data model: Volume -< Issue -< Paper."""
    model = ERModel(name="acm")
    model.entity("Volume", [("number", "INTEGER", True), ("year", "INTEGER"),
                            ("title", "VARCHAR(120)")])
    model.entity("Issue", [("number", "INTEGER"), ("month", "VARCHAR(20)")])
    model.entity("Paper", [("title", "VARCHAR(200)", True),
                           ("abstract", "TEXT"), ("pages", "INTEGER")])
    model.relate("VolumeToIssue", "Volume", "Issue", "1:N",
                 inverse_name="IssueToVolume")
    model.relate("IssueToPaper", "Issue", "Paper", "1:N",
                 inverse_name="PaperToIssue")
    return model


class TestModel:
    def test_entity_accessors(self):
        model = acm_model()
        volume = model.entity("Volume")
        assert volume.attribute("number").required
        assert volume.attribute_names == ["number", "year", "title"]
        assert volume.table_name == "volume"

    def test_unknown_entity(self):
        with pytest.raises(ERModelError, match="unknown entity"):
            acm_model().entity("Ghost")

    def test_unknown_attribute(self):
        with pytest.raises(ERModelError, match="no attribute"):
            acm_model().entity("Volume").attribute("ghost")

    def test_duplicate_entity_rejected(self):
        model = acm_model()
        with pytest.raises(ERModelError, match="duplicate entity"):
            model.add_entity(Entity("Volume"))

    def test_duplicate_relationship_rejected(self):
        model = acm_model()
        with pytest.raises(ERModelError, match="duplicate relationship"):
            model.relate("VolumeToIssue", "Volume", "Issue")

    def test_resolve_role_forward_and_inverse(self):
        model = acm_model()
        relationship, forward = model.resolve_role("VolumeToIssue")
        assert forward and relationship.target == "Issue"
        relationship, forward = model.resolve_role("IssueToVolume")
        assert not forward and relationship.name == "VolumeToIssue"

    def test_cardinality_parse(self):
        assert Cardinality.parse("n:m") == Cardinality.MANY_TO_MANY
        with pytest.raises(ERModelError):
            Cardinality.parse("3:4")

    def test_cardinality_inverted(self):
        assert Cardinality.ONE_TO_MANY.inverted() == Cardinality.MANY_TO_ONE
        assert Cardinality.MANY_TO_MANY.inverted() == Cardinality.MANY_TO_MANY

    def test_attribute_validates_type_eagerly(self):
        with pytest.raises(Exception):
            Attribute("bad", "GEOMETRY")

    def test_validation_unknown_endpoint(self):
        model = ERModel()
        model.entity("A", [])
        model.add_relationship(Relationship("AtoB", "A", "B"))
        with pytest.raises(ValidationError, match="unknown entity 'B'"):
            model.validate()

    def test_validation_duplicate_attribute(self):
        model = ERModel()
        model.add_entity(Entity("A", [Attribute("x"), Attribute("x")]))
        with pytest.raises(ValidationError, match="duplicate attribute"):
            model.validate()

    def test_validation_oid_collision(self):
        model = ERModel()
        model.add_entity(Entity("A", [Attribute("oid", "INTEGER")]))
        with pytest.raises(ValidationError, match="implicit oid"):
            model.validate()

    def test_validation_duplicate_role_names(self):
        model = ERModel()
        model.entity("A", [])
        model.entity("B", [])
        model.relate("link", "A", "B")
        model.add_relationship(Relationship("other", "B", "A", inverse_name="link"))
        with pytest.raises(ValidationError, match="duplicate relationship role"):
            model.validate()

    @pytest.mark.parametrize("inverse", [False, True])
    def test_validation_role_named_like_an_entity(self, inverse):
        model = ERModel()
        model.entity("A", [])
        model.entity("B", [])
        model.add_relationship(Relationship(
            "AtoB" if inverse else "B", "A", "B",
            inverse_name="A" if inverse else "BtoA"))
        name = "A" if inverse else "B"
        with pytest.raises(ValidationError,
                           match=f"role name '{name}' is an entity name"):
            model.validate()


class TestXmlPersistence:
    def test_roundtrip(self):
        model = acm_model()
        document = er_model_to_xml(model)
        loaded = er_model_from_xml(document)
        assert [e.name for e in loaded.entities] == ["Volume", "Issue", "Paper"]
        assert loaded.entity("Paper").attribute("title").required
        relationship, forward = loaded.resolve_role("IssueToVolume")
        assert not forward
        assert relationship.cardinality == Cardinality.ONE_TO_MANY

    def test_wrong_root_rejected(self):
        with pytest.raises(ERModelError, match="expected <ermodel>"):
            er_model_from_xml("<nope/>")

    def test_loaded_model_is_validated(self):
        document = (
            "<ermodel><relationship name='r' source='A' target='B'/></ermodel>"
        )
        with pytest.raises(ValidationError):
            er_model_from_xml(document)


class TestRelationalMapping:
    def test_entity_tables(self):
        mapping = map_to_relational(acm_model())
        names = [s.name for s in mapping.schemas]
        assert names == ["volume", "issue", "paper"]

    def test_oid_key_added(self):
        mapping = map_to_relational(acm_model())
        volume = mapping.schemas[0]
        assert volume.primary_key == ("oid",)
        assert volume.column("oid").auto_increment

    def test_attribute_columns_and_nullability(self):
        mapping = map_to_relational(acm_model())
        volume = mapping.schemas[0]
        assert not volume.column("number").nullable
        assert volume.column("year").nullable

    def test_one_to_many_fk_on_many_side(self):
        mapping = map_to_relational(acm_model())
        issue = next(s for s in mapping.schemas if s.name == "issue")
        assert issue.has_column("volume_to_issue_oid")
        fk = issue.foreign_keys[0]
        assert fk.target_table == "volume"
        assert fk.on_delete == "set_null"

    def test_fk_indexed(self):
        mapping = map_to_relational(acm_model())
        issue = next(s for s in mapping.schemas if s.name == "issue")
        assert any(
            ix.columns == ("volume_to_issue_oid",) for ix in issue.indexes
        )

    def test_many_to_one_fk_on_source(self):
        model = ERModel()
        model.entity("Paper", [])
        model.entity("Author", [])
        model.relate("PaperToMainAuthor", "Paper", "Author", "N:1")
        mapping = map_to_relational(model)
        paper = next(s for s in mapping.schemas if s.name == "paper")
        assert paper.has_column("paper_to_main_author_oid")

    def test_one_to_one_unique_fk(self):
        model = ERModel()
        model.entity("User", [])
        model.entity("Profile", [])
        model.relate("UserToProfile", "User", "Profile", "1:1")
        mapping = map_to_relational(model)
        profile = next(s for s in mapping.schemas if s.name == "profile")
        assert ("user_to_profile_oid",) in profile.unique_constraints

    def test_many_to_many_bridge(self):
        model = ERModel()
        model.entity("Paper", [])
        model.entity("Author", [])
        model.relate("Authorship", "Paper", "Author", "N:M",
                     inverse_name="AuthorOf")
        mapping = map_to_relational(model)
        bridge = next(s for s in mapping.schemas if s.name == "authorship")
        assert bridge.primary_key == ("paper_oid", "author_oid")
        assert all(fk.on_delete == "cascade" for fk in bridge.foreign_keys)

    def test_self_relationship_bridge_disambiguates(self):
        model = ERModel()
        model.entity("Paper", [])
        model.relate("Citation", "Paper", "Paper", "N:M")
        mapping = map_to_relational(model)
        bridge = next(s for s in mapping.schemas if s.name == "citation")
        assert bridge.primary_key == ("paper_oid", "paper_oid_2")

    def test_connection_write_specs(self):
        mapping = map_to_relational(acm_model())
        spec = mapping.connection_write("VolumeToIssue")
        assert spec["kind"] == "fk"
        assert spec["table"] == "issue"
        assert spec["column"] == "volume_to_issue_oid"
        assert spec["owner_entity"] == "Issue"

    def test_schemas_install_into_database(self):
        mapping = map_to_relational(acm_model())
        db = Database()
        for schema in mapping.schemas:
            db.create_table(schema)
        volume = db.insert_row("volume", {"number": 28, "year": 2003,
                                          "title": "TODS 28"})
        issue = db.insert_row("issue", {"number": 1,
                                        "volume_to_issue_oid": volume["oid"]})
        db.insert_row("paper", {"title": "WebML",
                                "issue_to_paper_oid": issue["oid"]})
        rows = db.query(
            "SELECT p.title FROM volume v"
            " JOIN issue i ON i.volume_to_issue_oid = v.oid"
            " JOIN paper p ON p.issue_to_paper_oid = i.oid"
            " WHERE v.number = 28"
        )
        assert rows.as_tuples() == [("WebML",)]

    def test_entity_map_column_lookup(self):
        mapping = map_to_relational(acm_model())
        entity_map = mapping.entity_map("Volume")
        assert entity_map.column_for("oid") == "oid"
        assert entity_map.column_for("title") == "title"
        with pytest.raises(ERModelError):
            entity_map.column_for("ghost")

    def test_mapping_requires_valid_model(self):
        model = ERModel()
        model.add_relationship(Relationship("r", "A", "B"))
        with pytest.raises(ValidationError):
            map_to_relational(model)
