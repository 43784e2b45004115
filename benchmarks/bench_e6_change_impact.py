"""E6 — §2/§3/§7: change impact of re-linking the hypertext topology.

Template-based architecture (§2): "the control logic is scattered
through the templates and hard-wired; each template embeds the URLs
pointing to the other templates callable from that page, and thus any
change in the hypertext topology or control logic of operations (e.g.,
to which page redirect the user in case of operation failure) requires
intervention on the code of the template."

Model-driven MVC (§7): "the developer re-links the pages in the WebML
diagram and the code generator re-builds the new configuration file" —
zero manual edits.

Scenario: every content-management operation's failure (KO) must start
redirecting to its site view's home page instead of the triggering page.
We measure, for the full Acer-scale application:

- template-based: how many hard-wired page templates embed one of the
  affected failure URLs (each needs a manual edit),
- MVC: which generated files actually change on regeneration (and that
  no template/skeleton is among them).

The generated schema is one of those files: indexes are derived from
the hypertext model (each unit's sort key and selector attributes), so
the count includes the index artefact — unchanged by the re-link, and
exactly ``sql/schema.sql`` plus the edited unit's descriptor when a
unit's ``order_by`` is edited.
"""

import pytest

from repro.bench import ExperimentReport, save_report
from repro.codegen import generate_project
from repro.webml.links import LinkKind
from repro.workloads import build_acer_model


@pytest.fixture(scope="module")
def acer_model():
    return build_acer_model()


def _hardwired_templates(model, project) -> dict[str, str]:
    """What a template-based implementation would ship: each template
    with the target URLs of its links embedded in the source."""
    templates = {}
    for descriptor in project.page_descriptors:
        urls = []
        for target in descriptor.navigation:
            if target.target_kind == "operation":
                operation = project_operation(project, target.target_id)
                urls.append(f"/do/{target.target_id}")
                # ...and the operation's outcome URLs are pasted inline too
                for outcome in (operation.ok, operation.ko):
                    if outcome is not None and outcome.target_page_id:
                        urls.append(f"/page/{outcome.target_page_id}")
            else:
                urls.append(f"/page/{target.target_page_id}")
        body = project.skeletons[descriptor.page_id]
        templates[descriptor.page_id] = body + "\n<!-- links: " + \
            " ".join(urls) + " -->"
    return templates


def project_operation(project, operation_id):
    return next(o for o in project.operation_descriptors
                if o.operation_id == operation_id)


def _relink_ko_targets(model) -> int:
    """Apply the scenario to the model; returns how many links moved."""
    moved = 0
    for view in model.site_views:
        if not view.requires_login:
            continue
        home_id = view.home_page_id
        for operation in view.operations:
            for link in model.links_from(operation):
                if link.kind == LinkKind.KO and link.target != home_id:
                    model.retarget_link(link, home_id)
                    moved += 1
    return moved


def test_e6_change_impact(benchmark, acer_model):
    before = generate_project(acer_model, validate=False)
    before_files = before.as_files()
    hardwired = _hardwired_templates(acer_model, before)

    # the failure pages whose URLs are hard-wired today
    affected_pages = set()
    for operation in before.operation_descriptors:
        if operation.ko is not None and operation.ko.target_page_id:
            affected_pages.add(operation.ko.target_page_id)

    moved = _relink_ko_targets(acer_model)
    after = benchmark.pedantic(
        lambda: generate_project(acer_model, validate=False),
        rounds=1, iterations=1,
    )
    after_files = after.as_files()

    # template-based: every template embedding an affected failure URL
    templates_to_edit = sum(
        1 for page_id, body in hardwired.items()
        if any(f"/page/{page}" in body for page in affected_pages)
    )
    # MVC: what regeneration actually rewrote
    changed = [
        path for path in before_files
        if before_files[path] != after_files.get(path)
    ]
    changed_templates = [p for p in changed if p.startswith("skeletons/")]
    changed_units = [p for p in changed
                     if p.startswith("descriptors/units/")]
    changed_configs = [p for p in changed if p.startswith("conf/")]
    changed_ddl = [p for p in changed if p.startswith("sql/")]

    report = ExperimentReport(
        "E6", "re-linking operation failure targets", "§2, §7"
    )
    report.add("KO links re-routed", "n/a", moved,
               note="all CM operations now fail to the view home")
    report.add("template-based: templates to edit by hand",
               "one per linking template", templates_to_edit)
    report.add("MVC: templates changed", 0, len(changed_templates))
    report.add("MVC: unit descriptors changed", 0, len(changed_units))
    report.add("MVC: controller config regenerated", 1, len(changed_configs))
    report.add("MVC: schema DDL (tables + indexes) changed", 0,
               len(changed_ddl),
               note=f"{before_files['sql/schema.sql'].count('CREATE INDEX')}"
                    " indexes, none asked for by a link")
    report.add("MVC: manual edits", 0, 0,
               note="re-link the diagram, regenerate")
    save_report(report, json_payload=report.rows_payload())

    assert moved > 100
    assert templates_to_edit > 100  # the template-based pain is real
    assert changed_templates == []
    assert changed_units == []
    assert changed_ddl == []
    assert changed_configs == ["conf/controller-config.xml"]


def test_e6_order_by_edit_carries_its_index(acer_model):
    """Editing one unit's sort key regenerates that unit's descriptor
    and the schema's index artefact — nothing else, and no hand edit."""
    before = generate_project(acer_model, validate=False).as_files()
    unit = next(u for u in acer_model.all_units()
                if u.kind == "index" and u.entity and not u.order_by)
    attribute = acer_model.data_model.entity(unit.entity).attribute_names[0]
    unit.order_by = [(attribute, False)]
    try:
        after = generate_project(acer_model, validate=False).as_files()
    finally:
        unit.order_by = []
    changed = sorted(p for p in before if before[p] != after.get(p))
    assert changed == [f"descriptors/units/{unit.id}.xml", "sql/schema.sql"]
    assert after["sql/schema.sql"].count("CREATE INDEX") \
        == before["sql/schema.sql"].count("CREATE INDEX") + 1
    assert f"-- for {unit.id} (order_by)" in after["sql/schema.sql"]


def test_e6_reload_without_restart(benchmark, acer_model):
    """The regenerated config hot-swaps into a live controller."""
    from repro.mvc import Controller

    project = generate_project(acer_model, validate=False)
    controller = Controller.from_config(project.controller_config)
    paths_before = set(controller.mappings)

    def reload():
        controller.load_config(project.controller_config)
        return len(controller.mappings)

    count = benchmark.pedantic(reload, rounds=1, iterations=1)
    assert count == len(paths_before)
