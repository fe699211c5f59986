"""Whole-pipeline binding fusion: the partial-evaluation optimisation.

Section 5 of the paper reports "temporarily bypassing vtables, using
partial evaluation techniques, to reduce the overhead of a cross-component
call to that of a C function call".  The per-binding half of this lives on
the vtable (:meth:`repro.opencom.vtable.VTable.fuse`); this module provides
the management layer that fuses and unfuses whole regions of a capsule:

- :func:`fuse_pipeline` walks a list of components and fuses every outgoing
  port, returning a :class:`FusionPlan` that can undo the optimisation;
- fusing a port covers its scalar *and* batch call handles — push-shaped
  (``port.push_batch(pkts)``) and pull-shaped (``port.pull_batch(max_n)``)
  alike: the port's ``<method>_batch`` attributes are rewired to the
  targets' native batch callables, so a fused region forwards (and drains)
  whole batches at one call per hop;
- fusion is *safety-checked*: ports whose target slots carry interceptors
  are skipped (and reported), and later interceptor installation revokes
  fused handles — scalar and batch — automatically, so reflection is never
  silently bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.opencom.component import Component
from repro.opencom.receptacle import Port


@dataclass
class FusionPlan:
    """Record of one fusion pass, able to undo itself."""

    fused_ports: list[Port] = field(default_factory=list)
    skipped: list[tuple[Port, str]] = field(default_factory=list)
    #: Live compiled chains (:class:`repro.opencom.compile.CompilationPlan`)
    #: recorded against this plan; reverted together with the ports.  A
    #: chain reverted on its own (pipeline decompile/recompile) leaves.
    compiled_chains: list = field(default_factory=list)
    #: Per-vtable interceptor check, computed once per pass rather than
    #: re-iterating every method for every port that shares a target
    #: (multi-receptacle fan-in hits the same vtable many times).
    _intercepted_cache: dict[int, list[str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Identity set of every port this pass has already visited (fused or
    #: skipped), so a port reachable through two components in the same
    #: region list is fused once and ``revert()`` never unfuses twice.
    _seen_port_ids: set[int] = field(
        default_factory=set, repr=False, compare=False
    )

    @property
    def fused_count(self) -> int:
        """Number of ports switched to direct dispatch."""
        return len(self.fused_ports)

    @property
    def compiled_count(self) -> int:
        """Number of compiled chains recorded against this plan."""
        return len(self.compiled_chains)

    def record_compiled(self, chain) -> None:
        """Attach a compiled chain so ``revert()`` tears it down too; the
        chain's own ``revert()`` detaches it again."""
        self.compiled_chains.append(chain)
        chain._on_revert.append(lambda: self._forget_compiled(chain))

    def _forget_compiled(self, chain) -> None:
        chains = self.compiled_chains
        for index, recorded in enumerate(chains):
            if recorded is chain:
                del chains[index]
                return

    def revert(self) -> None:
        """Undo the whole pass: compiled chains, fused ports, and every
        piece of pass-scoped bookkeeping.

        Clearing ``skipped``, the interceptor cache and the seen-port set
        matters for reuse: a plan object that survives a
        reconfigure→refuse cycle would otherwise consult a stale
        ``id(vtable)``-keyed cache entry that can alias a *new* vtable
        allocated at the same address, and re-report stale skips.
        """
        for chain in list(self.compiled_chains):
            chain.revert()
        for port in self.fused_ports:
            port.unfuse()
        self.fused_ports.clear()
        self.skipped.clear()
        self._intercepted_cache.clear()
        self._seen_port_ids.clear()

    def summary(self) -> str:
        """One-line human summary (used by benchmarks and logs).

        Compiled chains, fused ports and skipped ports are reported as
        three distinct counts — a compiled chain is not "more fused
        ports", and a skip is not a failure of either.
        """
        parts = [f"fused {self.fused_count} port(s)"]
        if self.compiled_chains:
            parts.insert(0, f"compiled {self.compiled_count} chain(s)")
        if self.skipped:
            reasons = sorted({reason for _, reason in self.skipped})
            parts.append(
                f"skipped {len(self.skipped)} ({'; '.join(reasons)})"
            )
        return ", ".join(parts)


def fuse_component(component: Component, plan: FusionPlan | None = None) -> FusionPlan:
    """Fuse every outgoing port of one component.

    Ports whose target vtable has interceptors on any slot are left
    indirect and recorded in ``plan.skipped`` with a reason.  The
    interceptor check is cached per target vtable on the plan, so sharing
    one *plan* across a whole region (as :func:`fuse_pipeline` does) pays
    it once per interface instance, not once per port.
    """
    plan = plan if plan is not None else FusionPlan()
    cache = plan._intercepted_cache
    seen_ports = plan._seen_port_ids
    for receptacle in component.receptacles().values():
        for port in receptacle.connections():
            if id(port) in seen_ports:
                continue  # reachable through two components: fuse once
            seen_ports.add(id(port))
            vtable = port.target.vtable
            key = id(vtable)
            intercepted = cache.get(key)
            if intercepted is None:
                intercepted = [
                    m for m in vtable.iter_methods() if vtable.intercepted(m)
                ]
                cache[key] = intercepted
            if intercepted:
                plan.skipped.append(
                    (port, f"interceptors on {', '.join(intercepted)}")
                )
                continue
            port.fuse()
            plan.fused_ports.append(port)
    return plan


def fuse_pipeline(components: list[Component]) -> FusionPlan:
    """Fuse every outgoing port of every component in a region.

    Returns a single :class:`FusionPlan`; call ``plan.revert()`` before
    reconfiguring the region (the architecture meta-model's
    ``replace_component`` works either way, since unbinding destroys the
    fused ports, but reverting first keeps intent explicit).
    """
    plan = FusionPlan()
    for component in components:
        fuse_component(component, plan)
    return plan


def fusion_report(plan: FusionPlan) -> dict[str, object]:
    """Summarise a fusion pass for logs and benchmarks."""
    return {
        "fused": plan.fused_count,
        "compiled": plan.compiled_count,
        "skipped": [
            {
                "port": f"{p.receptacle.owner.name}.{p.receptacle.name}[{p.connection_name}]",
                "reason": reason,
            }
            for p, reason in plan.skipped
        ],
    }
