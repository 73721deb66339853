"""Shared test helpers: a minimal raw loader for pre-ELF ISA tests, and
the eager oracle for the cache's deferred pollution.

The real loader lives in ``repro.linker``; tests below that layer need a
way to drop assembled text/data into node memory and fix up the handful of
relocations by hand.
"""

from __future__ import annotations

import numpy as np

from repro.isa import IntrinsicTable, ObjectModule, RelocKind, Vm, native_address
from repro.machine import PROT_RW, PROT_RWX, Node, SetAssocCache
from repro.sim import Engine


class EagerCache(SetAssocCache):
    """Oracle for the deferred LLC pollution: ``install_many`` as the
    per-line ``install`` loop it stands for, so nothing is ever pending."""

    __slots__ = ()

    def install_many(self, line_addrs) -> int:
        return eager_install_many(self, line_addrs)


def eager_install_many(cache: SetAssocCache, line_addrs) -> int:
    ndirty = 0
    for line in np.asarray(line_addrs, dtype=np.int64).tolist():
        ev = cache.install(line)
        if ev is not None and ev[1]:
            ndirty += 1
    return ndirty


def fresh_node() -> tuple[Engine, Node]:
    eng = Engine()
    return eng, Node(eng, node_id=0)


def raw_load(node: Node, om: ObjectModule, got_symbols: dict[str, int] | None = None,
             ) -> dict[str, int]:
    """Copy an object module into node memory and resolve relocations.

    ``got_symbols`` maps extern names to absolute addresses; a GOT is
    materialized right after the data section.  Returns symbol name ->
    absolute address (including "__text", "__data", "__got").
    """
    text_base = node.map_region(max(len(om.text), 8), PROT_RWX, align=4096,
                                label="rawtext")
    node.mem.write(text_base, om.text)
    data_size = max(len(om.data) + om.bss_size + om.got_size, 8)
    data_base = node.map_region(data_size, PROT_RW, align=4096, label="rawdata")
    if om.data:
        node.mem.write(data_base, om.data)
    got_base = data_base + len(om.data) + om.bss_size
    got_base = (got_base + 7) & ~7
    for slot, name in enumerate(om.externs):
        target = (got_symbols or {}).get(name)
        if target is None:
            raise KeyError(f"raw_load: extern {name!r} unresolved")
        node.mem.write_u64(got_base + slot * 8, target)

    def addr_of(section: str, offset: int) -> int:
        return (text_base if section == "text" else data_base) + offset

    symbols = {"__text": text_base, "__data": data_base, "__got": got_base}
    for name, sym in om.symbols.items():
        if sym.section == "bss":
            symbols[name] = data_base + len(om.data) + sym.offset
        else:
            symbols[name] = addr_of(sym.section, sym.offset)

    for reloc in om.relocs:
        site = addr_of(reloc.section, reloc.offset)
        if reloc.kind is RelocKind.GOTPC32:
            node.mem.write_u32(site + 4, (got_base - site + reloc.addend)
                               & 0xFFFFFFFF)
        elif reloc.kind is RelocKind.PCREL32:
            target = symbols[reloc.symbol]
            node.mem.write_u32(site + 4, (target - site + reloc.addend)
                               & 0xFFFFFFFF)
        elif reloc.kind is RelocKind.ABS64:
            node.mem.write_u64(site, symbols[reloc.symbol] + reloc.addend)
    return symbols


def make_vm(node: Node, core: int = 0) -> Vm:
    return Vm(node, core=core)


def native_got(table: IntrinsicTable, names: list[str]) -> dict[str, int]:
    """GOT symbol map pointing externs at native intrinsic addresses."""
    out = {}
    for name in names:
        idx = table.index_of(name)
        if idx is None:
            raise KeyError(name)
        out[name] = native_address(idx)
    return out
