"""Plug-in units (§7): extending the tool without touching its core.

> "We have added to WebRatio the notion of 'plug-in units', i.e. of new
> components, which can be easily plugged into the design and runtime
> environment, by providing their graphical icon, their unit service and
> rendition tags and the XSL rules for building their descriptors.
> Plug-in units are being used for adding to WebRatio content and
> operation units interacting with Web services and implementing
> workflow functionalities."

This example registers exactly those two §7 plug-ins:

1. ``availabilityUnit`` — a content unit that calls an external *Web
   service* (simulated: a stock-availability endpoint) and publishes its
   response next to database-backed units on the same page;
2. ``advance`` — a *workflow* operation unit that moves an order through
   the states draft → approved → shipped, refusing illegal transitions
   (KO link).

Both plug into the unchanged pipeline: the model builder accepts the new
kinds, the code generator emits their descriptors and skeleton tags, the
generic dispatcher routes to their services, and the template engine
renders their tags.

Run:  python examples/plugin_units.py
"""

from repro import (
    Browser,
    ERModel,
    LinkKind,
    PresentationRenderer,
    WebApplication,
    WebMLModel,
    default_stylesheet,
)
from repro.codegen import generate_project
from repro.descriptors import OperationDescriptor, UnitDescriptor
from repro.presentation.xslt import UnitRule
from repro.services import OperationResult, UnitBean
from repro.services.plugins import PluginUnit, plugin_registry
from repro.xmlkit import Element

# ---------------------------------------------------------------------------
# Plug-in 1: a Web-service content unit
# ---------------------------------------------------------------------------


class StockWebService:
    """The simulated external SOAP endpoint."""

    calls = 0

    @classmethod
    def availability(cls, product_name: str) -> dict:
        cls.calls += 1
        level = (sum(map(ord, product_name)) % 40) + 1  # deterministic
        return {"product": product_name, "in_stock": level,
                "warehouse": "Como" if level > 20 else "Milano"}


class AvailabilityUnitService:
    kind = "availabilityUnit"

    def compute(self, descriptor, inputs, ctx) -> UnitBean:
        bean = UnitBean(descriptor.unit_id, descriptor.name, self.kind)
        product = inputs.get("product")
        if product:
            bean.current = StockWebService.availability(str(product))
            bean.outputs = dict(bean.current)
        return bean


class AvailabilityTag:
    def render(self, bean, tag, context) -> Element:
        box = Element("div", {"class": "unit unit-availability",
                              "id": bean.unit_id})
        if bean.current is None:
            box.add("p", {"class": "empty"}, text="No availability data")
            return box
        box.add("p", {"class": "ws-result"},
                text=(f"{bean.current['product']}: "
                      f"{bean.current['in_stock']} in stock "
                      f"({bean.current['warehouse']})"))
        return box


def availability_descriptor_builder(unit, mapping) -> UnitDescriptor:
    """§7: the plug-in ships the rules for building its descriptors."""
    return UnitDescriptor(
        unit_id=unit.id, name=unit.name, kind=unit.kind,
        entry_fields=[],  # the service consumes the 'product' input slot
    )


# ---------------------------------------------------------------------------
# Plug-in 2: a workflow operation unit
# ---------------------------------------------------------------------------

WORKFLOW = {"draft": "approved", "approved": "shipped"}


class AdvanceWorkflowService:
    kind = "advance"

    def execute(self, descriptor: OperationDescriptor, inputs, ctx,
                session) -> OperationResult:
        oid = int(inputs["oid"])
        row = ctx.query(
            "SELECT status AS status FROM purchase WHERE oid = :oid",
            {"oid": oid},
        ).first()
        if row is None:
            return OperationResult(descriptor.operation_id, ok=False,
                                   message="no such order")
        next_status = WORKFLOW.get(row["status"])
        if next_status is None:
            return OperationResult(
                descriptor.operation_id, ok=False,
                message=f"cannot advance from {row['status']!r}",
            )
        # the commit invalidates every cache level: no write set to state
        ctx.execute(
            "UPDATE purchase SET status = :s WHERE oid = :oid",
            {"s": next_status, "oid": oid},
        )
        return OperationResult(descriptor.operation_id, ok=True,
                               outputs={"oid": oid, "status": next_status})


# ---------------------------------------------------------------------------


def main() -> None:
    plugin_registry.register(PluginUnit(
        kind="availabilityUnit",
        tag_name="webml:availabilityUnit",
        service=AvailabilityUnitService(),
        renderer=AvailabilityTag(),
        presentation_rule=UnitRule(pattern="webml:availabilityUnit",
                                   set_attrs={"class": "ws-box"}),
        descriptor_builder=availability_descriptor_builder,
    ))
    plugin_registry.register(PluginUnit(
        kind="advance",
        tag_name="webml:advanceOp",
        operation_service=AdvanceWorkflowService(),
    ))
    try:
        run_application()
    finally:
        plugin_registry.unregister("availabilityUnit")
        plugin_registry.unregister("advance")


def run_application() -> None:
    data = ERModel(name="orders")
    data.entity("Purchase", [("product", "VARCHAR(80)", True),
                             ("status", "VARCHAR(20)", True)])

    model = WebMLModel(data, name="orders")
    view = model.site_view("desk")
    page = view.page("Orders", home=True)
    orders = page.index_unit("Open orders", "Purchase",
                             display_attributes=["product", "status"])
    order_data = page.data_unit("Order detail", "Purchase",
                                display_attributes=["product", "status"])
    availability = page.plugin_unit("Stock check", "availabilityUnit",
                                    extra_inputs=["product"])
    model.link(orders, order_data, kind=LinkKind.TRANSPORT,
               params=[("oid", "oid")])
    model.link(order_data, availability, kind=LinkKind.TRANSPORT,
               params=[("product", "product")])

    # the workflow operation is declared directly at descriptor level
    # (operation plug-ins extend the runtime; the model keeps built-ins)
    project = generate_project(model, validate=False)
    stylesheet = default_stylesheet("Order Desk")
    stylesheet.unit_rules.append(
        plugin_registry.get("availabilityUnit").presentation_rule
    )
    renderer = PresentationRenderer(project.skeletons, stylesheet)
    app = WebApplication(model, view_renderer=renderer)
    app.seed_entity("Purchase", [
        {"product": "TravelMate 720", "status": "draft"},
        {"product": "Aspire 1700", "status": "approved"},
    ])

    # register the workflow operation descriptor + service
    advance = OperationDescriptor(
        operation_id="wf1", name="AdvanceOrder", kind="advance",
        site_view_id=view.id,
    )
    app.registry.deploy_operation(advance)

    print("1. the plug-in unit renders inside a generated page")
    browser = Browser(app)
    browser.get("/")
    marker = "unit-availability"
    print(f"   skeleton tag resolved by plug-in renderer: "
          f"{marker in browser.body}")
    print(f"   web service calls so far: {StockWebService.calls}")

    print("\n2. the workflow operation advances orders with KO on illegal"
          " transitions")
    from repro.services import GenericOperationService
    from repro.mvc.http import Session

    service = GenericOperationService(app.ctx)
    session = Session("s")
    for oid in (1, 1, 1):
        outcome = service.execute(advance, {"oid": oid}, session)
        status = app.ctx.database.query(
            "SELECT status AS s FROM purchase WHERE oid = 1").scalar()
        print(f"   advance(order 1) -> ok={outcome.ok} "
              f"({outcome.message or 'now ' + status})")


if __name__ == "__main__":
    main()
