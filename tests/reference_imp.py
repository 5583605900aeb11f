"""Direct interpreter for the imperative language, used as an oracle.

Runs programs over plain dict stores with modular machine arithmetic,
sharing no code with the term translation.  Loops get a fresh fuel
budget on every dynamic entry and report exhaustion by raising the
reserved fuel exception before looking at the guard.
"""
from __future__ import annotations

from declogic.imp import (
    Add,
    And,
    Assign,
    BFalse,
    BTrue,
    Eq,
    FUEL_EXCEPTION,
    If,
    Le,
    Lit,
    Loc,
    Mul,
    Not,
    Seq,
    Skip,
    Sub,
    Throw,
    TryCatch,
    While,
)


def _first_name(expr):
    if isinstance(expr, Loc):
        return expr.name
    if isinstance(expr, (Add, Sub, Mul)):
        return _first_name(expr.left) or _first_name(expr.right)
    return None


class Machine:
    """One program's static context: declarations plus carrier sizes."""

    def __init__(self, locations, exceptions, sizes):
        self.locations = dict(locations)
        self.exceptions = dict(exceptions)
        self.sizes = dict(sizes)

    def _base_of(self, expr, binders):
        name = _first_name(expr)
        if name is not None:
            if name in binders:
                return binders[name][1]
            return self.locations[name]
        if len(self.sizes) == 1:
            return next(iter(self.sizes))
        raise ValueError("ambiguous literal-only expression")

    def eval_aexp(self, expr, base, store, binders):
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Loc):
            if expr.name in binders:
                return binders[expr.name][0]
            return store[expr.name]
        size = self.sizes[base]
        left = self.eval_aexp(expr.left, base, store, binders)
        right = self.eval_aexp(expr.right, base, store, binders)
        if isinstance(expr, Add):
            return (left + right) % size
        if isinstance(expr, Sub):
            return (left - right) % size
        if isinstance(expr, Mul):
            return (left * right) % size
        raise TypeError(f"not an arithmetic expression: {expr!r}")

    def eval_bexp(self, expr, store, binders):
        if isinstance(expr, BTrue):
            return True
        if isinstance(expr, BFalse):
            return False
        if isinstance(expr, (Eq, Le)):
            base = self._base_of(expr.left, binders) if _first_name(expr.left) \
                else self._base_of(expr.right, binders)
            left = self.eval_aexp(expr.left, base, store, binders)
            right = self.eval_aexp(expr.right, base, store, binders)
            return left == right if isinstance(expr, Eq) else left <= right
        if isinstance(expr, Not):
            return not self.eval_bexp(expr.body, store, binders)
        if isinstance(expr, And):
            return (self.eval_bexp(expr.left, store, binders)
                    and self.eval_bexp(expr.right, store, binders))
        raise TypeError(f"not a boolean expression: {expr!r}")

    def run(self, cmd, store, fuel, binders=None):
        """Run `cmd`; returns ("ok", store) or ("exc", name, param, store).

        `store` is never mutated; state changes made before a raise are
        kept in the returned store.
        """
        binders = binders or {}
        if isinstance(cmd, Skip):
            return ("ok", store)
        if isinstance(cmd, Assign):
            base = self.locations[cmd.target]
            value = self.eval_aexp(cmd.expr, base, store, binders)
            return ("ok", {**store, cmd.target: value})
        if isinstance(cmd, Seq):
            result = self.run(cmd.first, store, fuel, binders)
            if result[0] != "ok":
                return result
            return self.run(cmd.second, result[1], fuel, binders)
        if isinstance(cmd, If):
            if self.eval_bexp(cmd.cond, store, binders):
                return self.run(cmd.then_branch, store, fuel, binders)
            return self.run(cmd.else_branch, store, fuel, binders)
        if isinstance(cmd, While):
            remaining = fuel
            while True:
                if remaining == 0:
                    return ("exc", FUEL_EXCEPTION, 0, store)
                if not self.eval_bexp(cmd.cond, store, binders):
                    return ("ok", store)
                result = self.run(cmd.body, store, fuel, binders)
                if result[0] != "ok":
                    return result
                store = result[1]
                remaining -= 1
        if isinstance(cmd, Throw):
            base = self.exceptions[cmd.exception]
            param = self.eval_aexp(cmd.payload, base, store, binders)
            return ("exc", cmd.exception, param, store)
        if isinstance(cmd, TryCatch):
            result = self.run(cmd.body, store, fuel, binders)
            if result[0] == "ok" or result[1] == FUEL_EXCEPTION:
                return result
            _, name, param, after = result
            for clause in cmd.clauses:
                if clause.exception == name:
                    bound = {**binders,
                             clause.binder: (param, self.exceptions[name])}
                    return self.run(clause.handler, after, fuel, bound)
            return result
        raise TypeError(f"not a command: {cmd!r}")


def store_of(model, state):
    return dict(zip(model.locations, state))


def state_of(model, store):
    return tuple(store[name] for name in model.locations)


def reference_check(machine, model, first, second, fuel):
    """(verdict, state) computed entirely by the direct interpreter over
    every state: the first state where results differ, else the first
    one a loop ran out of fuel from, else the first one where only final
    states differ; no state for a strong verdict."""
    exhausted = weak = None
    for state in model.states:
        store = store_of(model, state)
        results = [machine.run(cmd, store, fuel) for cmd in (first, second)]
        keys = []
        for result in results:
            if result[0] == "ok":
                keys.append(("ok", None, None, state_of(model, result[1])))
            else:
                keys.append(("exc", result[1], result[2], state_of(model, result[3])))
        if any(key[1] == FUEL_EXCEPTION for key in keys):
            if exhausted is None:
                exhausted = state
            continue
        if keys[0][:3] != keys[1][:3]:
            return "not-equal", state
        if keys[0][3] != keys[1][3]:
            if weak is None:
                weak = state
    if exhausted is not None:
        return "fuel-exhausted", exhausted
    if weak is not None:
        return "weak", weak
    return "strong", None


def reference_verdict(machine, model, first, second, fuel):
    """Equivalence verdict computed entirely by the direct interpreter."""
    return reference_check(machine, model, first, second, fuel)[0]
