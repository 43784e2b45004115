"""Operation service implementations.

Each service executes its descriptor's DML and reports an OK/KO outcome;
the controller then follows the corresponding link ("to which page
redirect the user in case of operation failure", §2).  A database
integrity violation or a statement affecting zero rows is a KO — the
modelled failure path, not a crash.
"""

from __future__ import annotations

from repro.descriptors import OperationDescriptor
from repro.errors import DatabaseError
from repro.services.base import (
    OperationServiceBase,
    RuntimeContext,
    coerce_value,
)
from repro.services.beans import OperationResult


class _StatementOperationService(OperationServiceBase):
    """Shared shape: run every statement, collect outputs.

    A list-valued input (a multichoice unit's ``oids`` selection bound
    to a scalar slot) turns the operation into a *bulk* operation: each
    statement runs once per element, in order.
    """

    #: subclasses: a zero-row statement is a failure?
    zero_rows_is_ko = True

    def execute(self, descriptor: OperationDescriptor, inputs: dict,
                ctx: RuntimeContext, session) -> OperationResult:
        """Run the statements atomically: a KO rolls back everything the
        operation already wrote (bulk selections included).  §6's
        automatic invalidation is the commit's: the runtime context
        derives the write set from the rows it changed."""
        ctx.database.begin()
        result = self._execute_statements(descriptor, inputs, ctx)
        if result.ok:
            ctx.database.commit()
            ctx.stats.increment("operations_executed")
        else:
            ctx.database.rollback()
        return result

    def _execute_statements(self, descriptor: OperationDescriptor,
                            inputs: dict, ctx: RuntimeContext) -> OperationResult:
        result = OperationResult(descriptor.operation_id, ok=True)
        for statement in descriptor.statements:
            for params in self._parameter_sets(descriptor, statement, inputs):
                if isinstance(params, OperationResult):
                    return params  # a coercion failure
                try:
                    affected = ctx.execute(statement.sql, params)
                except DatabaseError as exc:
                    return OperationResult(
                        descriptor.operation_id, ok=False, message=str(exc)
                    )
                result.affected_rows += affected
                if statement.captures_new_oid:
                    result.outputs["oid"] = ctx.last_insert_id
                if affected == 0 and self.zero_rows_is_ko:
                    return OperationResult(
                        descriptor.operation_id, ok=False,
                        message=f"{descriptor.kind} matched no rows",
                        affected_rows=result.affected_rows,
                    )
        return result

    def _parameter_sets(self, descriptor, statement, inputs: dict):
        """One params dict per execution (several for bulk selections)."""
        list_slots = [
            slot for slot, _p, _t in statement.params
            if isinstance(inputs.get(slot), (list, tuple))
        ]
        repetitions = 1
        if list_slots:
            lengths = {len(inputs[slot]) for slot in list_slots}
            if len(lengths) != 1:
                yield OperationResult(
                    descriptor.operation_id, ok=False,
                    message="bulk inputs of mismatched lengths",
                )
                return
            repetitions = lengths.pop()
            if repetitions == 0:
                yield OperationResult(
                    descriptor.operation_id, ok=False,
                    message="empty bulk selection",
                )
                return
        for position in range(repetitions):
            params = {}
            for slot, sql_param, value_type in statement.params:
                value = inputs.get(slot)
                if slot in list_slots:
                    value = value[position]
                try:
                    params[sql_param] = coerce_value(value, value_type)
                except (TypeError, ValueError):
                    yield OperationResult(
                        descriptor.operation_id, ok=False,
                        message=f"bad value for {slot!r}: {value!r}",
                    )
                    return
            yield params


class CreateOperationService(_StatementOperationService):
    kind = "create"
    zero_rows_is_ko = False  # INSERT failures surface as exceptions


class DeleteOperationService(_StatementOperationService):
    kind = "delete"


class ModifyOperationService(_StatementOperationService):
    kind = "modify"


class ConnectOperationService(_StatementOperationService):
    kind = "connect"


class DisconnectOperationService(_StatementOperationService):
    kind = "disconnect"


class LoginOperationService(OperationServiceBase):
    """Authenticates via the descriptor's user query and binds the user
    to the session (§1's session-level personalization)."""

    kind = "login"

    def execute(self, descriptor: OperationDescriptor, inputs: dict,
                ctx: RuntimeContext, session) -> OperationResult:
        username = inputs.get("username")
        password = inputs.get("password")
        if not username or password is None:
            return OperationResult(
                descriptor.operation_id, ok=False, message="missing credentials"
            )
        rows = ctx.query(
            descriptor.user_query,
            {"username": username, "password": password},
        )
        row = rows.first()
        if row is None:
            return OperationResult(
                descriptor.operation_id, ok=False, message="invalid credentials"
            )
        session.login(user_oid=row["oid"], username=str(username))
        ctx.stats.increment("operations_executed")
        return OperationResult(
            descriptor.operation_id, ok=True, outputs={"oid": row["oid"]}
        )


class LogoutOperationService(OperationServiceBase):
    kind = "logout"

    def execute(self, descriptor: OperationDescriptor, inputs: dict,
                ctx: RuntimeContext, session) -> OperationResult:
        session.logout()
        ctx.stats.increment("operations_executed")
        return OperationResult(descriptor.operation_id, ok=True)


#: kind → service instance.
OPERATION_SERVICES: dict[str, OperationServiceBase] = {
    service.kind: service
    for service in (
        CreateOperationService(),
        DeleteOperationService(),
        ModifyOperationService(),
        ConnectOperationService(),
        DisconnectOperationService(),
        LoginOperationService(),
        LogoutOperationService(),
    )
}
