"""The Two-Chains runtime: per-process state, connections, jam senders.

One :class:`TwoChainsRuntime` per process (one per node in the two-node
testbed).  It owns the process namespace, loader, VM, a mini-UCX worker
bound to the node's HCA, loaded packages, and mailboxes.  A
:class:`Connection` is the sender-side handle produced by the out-of-band
setup exchange (§III-B: "the GOT redirect ... is set by the sender after
an exchange with the receiver"): remote mailbox geometry + rkey, the
receiver's per-element GOT addresses, and the bank flow-control flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MailboxError, PackageError, TwoChainsError
from ..isa.intrinsics import IntrinsicTable
from ..isa.vm import Vm
from ..linker.loader import Loader
from ..linker.namespace import Namespace
from ..machine.node import Node
from ..machine.pages import PROT_RW
from ..obs.metrics import METRICS as _M
from ..obs.tracer import TRACER as _T, node_pid
from ..rdma.mr import Access
from ..rdma.verbs import Hca, QueuePair
from ..sim.engine import Delay, Engine
from ..ucp.worker import UcpConfig, UcpWorker
from .config import RuntimeConfig
from .mailbox import Mailbox, MailboxInfo, Waiter
from .message import (
    F_GOTP_SENDER,
    F_INJECTED,
    F_NO_EXEC,
    Frame,
    frame_wire_size,
    pack_frame,
)
from .package import LoadedPackage, load_package
from .toolchain import PackageBuild


class TwoChainsRuntime:
    """Per-process Two-Chains state.

    ``qp_out`` is either a single outbound :class:`QueuePair` (the
    original two-node surface) or a mapping/list of outbound QPs — one
    per peer — on an N-node fabric.  The worker opens one mini-UCX
    endpoint per peer; ``self.ep`` stays the endpoint to the first peer
    so two-node call sites keep working unchanged.
    """

    def __init__(self, engine: Engine, node: Node, hca: Hca,
                 qp_out, cfg: RuntimeConfig | None = None,
                 core: int = 0, ucp_cfg: UcpConfig | None = None):
        self.engine = engine
        self.node = node
        self.hca = hca
        self.cfg = cfg or RuntimeConfig()
        self.core = core
        self.intrinsics = IntrinsicTable()
        self.namespace = Namespace(self.intrinsics)
        self.loader = Loader(node, self.namespace)
        self.vm = Vm(node, core=core, intrinsics=self.intrinsics)
        self.worker = UcpWorker(engine, node, hca, ucp_cfg, core=core)
        if isinstance(qp_out, QueuePair):
            qps = [qp_out]
        elif isinstance(qp_out, dict):
            qps = [qp_out[k] for k in sorted(qp_out)]
        else:
            qps = list(qp_out)
        for qp in qps:  # ascending peer order: deterministic setup
            self.worker.create_ep(qp)
        self.ep = self.worker.ep_to(qps[0].dst.node.node_id) if qps else None
        self.packages: dict[int, LoadedPackage] = {}
        # 8-byte scratch cell used for flag puts back to senders.
        self.flag_scratch = node.map_region(64, PROT_RW, label="flagscratch")

    def ep_to(self, peer: int):
        """The mini-UCX endpoint addressing ``peer`` (a node id)."""
        return self.worker.ep_to(peer)

    # -- checkpointing ----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture runtime-level mutable state.  Node/HCA/engine state is
        captured by their own snapshots (``World.snapshot`` composes
        them); here only what the runtime itself owns: the loaded-package
        set, the (mutable) RuntimeConfig fields, and the UCX worker and
        endpoint bookkeeping.  Namespace/loader mutations after the
        snapshot (``namespace.redefine`` + ``relink_package``) are NOT
        captured: restore a world only to a checkpoint taken after its
        last relink."""
        return {
            "packages": dict(self.packages),
            "cfg": dict(vars(self.cfg)),
            "worker": self.worker.snapshot(),
            "eps": {peer: ep.snapshot()
                    for peer, ep in self.worker.eps.items()},
        }

    def restore(self, snap: dict) -> None:
        self.packages = dict(snap["packages"])
        for name, value in snap["cfg"].items():
            setattr(self.cfg, name, value)
        self.worker.restore(snap["worker"])
        for peer, ep_snap in snap["eps"].items():
            self.worker.eps[peer].restore(ep_snap)

    # -- setup ------------------------------------------------------------

    def load_package(self, build: PackageBuild) -> LoadedPackage:
        pkg = load_package(self.node, self.loader, build)
        self.packages[pkg.package_id] = pkg
        # dlopen is a setup-time cost; charge it to the core outside any
        # measured loop (benchmarks load before timing starts).
        self.node.add_busy_ns(self.core, pkg.library.load_cost_ns)
        return pkg

    def relink_package(self, pkg: LoadedPackage) -> None:
        """Refresh the package's bindings against the current namespace:
        re-apply the library's relocations and rebuild every element GOT.
        Call after loading a replacement library (with
        ``namespace.redefine``) to change what already-installed jams and
        local functions call — without restarting the process (§III)."""
        self.loader.relink(pkg.library)
        slots = 0
        for el, art in zip(pkg.elements, pkg.build.jams):
            for slot, sym in enumerate(art.externs):
                self.node.mem.write_u64(el.got_addr + slot * 8,
                                        self.namespace.resolve(sym))
                slots += 1
        if _T.enabled:
            _T.instant(node_pid(self.node.node_id), self.core, "got.relink",
                       self.engine.now,
                       {"package": pkg.build.name, "slots": slots})

    def create_mailbox(self, banks: int = 1, slots: int = 1,
                       frame_size: int = 1024) -> Mailbox:
        return Mailbox(self, banks, slots, frame_size)

    def make_waiter(self, mailbox: Mailbox, on_frame=None,
                    flag_target=None, record_dispatch: bool = False,
                    core: int | None = None) -> Waiter:
        return Waiter(self, mailbox, on_frame=on_frame,
                      flag_target=flag_target,
                      record_dispatch=record_dispatch, core=core)


@dataclass
class _ElementRemote:
    got_addr: int          # receiver-side element GOT
    code_addr: int         # sender-side staged copy of the jam blob
    code_size: int
    entry_off: int


class Connection:
    """Sender-side handle to one remote mailbox (result of the exchange)."""

    def __init__(self, sender: TwoChainsRuntime, receiver: TwoChainsRuntime,
                 mailbox: Mailbox, flow_control: bool = False):
        self.rt = sender
        self.peer = receiver.node.node_id
        self.ep = sender.ep_to(self.peer)
        self.info: MailboxInfo = mailbox.info()
        self.flow_control = flow_control
        self._remote: dict[tuple[int, int], _ElementRemote] = {}
        # Stage every known jam blob into sender memory once (the package
        # install did this in the paper's flow).
        for pkg_id, pkg in receiver.packages.items():
            spkg = sender.packages.get(pkg_id)
            if spkg is None:
                continue  # sender has not loaded this package
            for r_el, art in zip(pkg.elements, pkg.build.jams):
                code_addr = sender.node.map_region(
                    max(len(art.blob), 64), PROT_RW, label="jamcode")
                sender.node.mem.write(code_addr, art.blob)
                self._remote[(pkg_id, art.element_id)] = _ElementRemote(
                    got_addr=r_el.got_addr,
                    code_addr=code_addr,
                    code_size=len(art.blob),
                    entry_off=art.entry_off,
                )
        # Frame staging buffer.
        self._staging = sender.node.map_region(
            max(self.info.frame_size, 64), PROT_RW, align=64,
            label="framestage")
        # Bank flow-control flags (sender memory, receiver raises them).
        self.flags_addr = sender.node.map_region(
            max(self.info.banks * 8, 64), PROT_RW, label="bankflags")
        for b in range(self.info.banks):
            sender.node.mem.write_u64(self.flags_addr + b * 8, 1)
        self.flags_mr = sender.hca.register_memory(
            self.flags_addr, max(self.info.banks * 8, 64),
            Access.REMOTE_WRITE)
        # cursor state
        self._bank = 0
        self._slot = 0
        self._rounds = [0] * self.info.banks
        self.sends = 0

    # -- info the receiver needs for flow control --------------------------

    def flag_target(self) -> tuple[int, int, int]:
        """(sender node id, flag base address, rkey): where the receiver's
        waiter raises bank flags, and on which peer."""
        return self.rt.node.node_id, self.flags_addr, self.flags_mr.rkey

    # -- sending -----------------------------------------------------------

    def _next_slot(self):
        bank, slot = self._bank, self._slot
        seq = (self._rounds[bank] % 255) + 1
        self._slot += 1
        if self._slot == self.info.slots:
            self._slot = 0
            self._rounds[bank] += 1
            self._bank = (bank + 1) % self.info.banks
        return bank, slot, seq

    def _wait_bank_free(self, bank: int):
        node = self.rt.node
        addr = self.flags_addr + bank * 8
        ev = node.monitor_event(addr)
        start = self.rt.engine.now
        while node.mem.read_u64(addr) == 0:
            yield ev
        # Sender-side flow control is also a spin on local memory; in the
        # streaming benchmarks it overlaps the receiver's drain.
        node.add_wait_cycles(self.rt.core, int((self.rt.engine.now - start)
                                               * 2.6))
        node.mem.write_u64(addr, 0)
        if _T.enabled:
            _T.span(node_pid(node.node_id), self.rt.core, "am.fc_wait",
                    start, self.rt.engine.now, {"bank": bank})
        if _M.enabled:
            end = self.rt.engine.now
            nid = node.node_id
            _M.count(f"tc_fc_waits_total|node={nid}", end)
            _M.count(f"tc_fc_stall_ns_total|node={nid}", end, end - start)
            _M.observe(f"tc_fc_wait_ns|node={nid}", end - start)

    def send_jam(self, package: LoadedPackage, element_name: str,
                 payload_addr: int, payload_size: int,
                 args: tuple[int, ...] = (), inject: bool = True,
                 no_exec: bool = False):
        """Process body: pack one active message and put it to the remote
        mailbox.  Returns the UcpRequest of the frame put."""
        rt = self.rt
        node = rt.node
        cfg = rt.cfg
        t_send = rt.engine.now
        el = package.element(element_name)
        key = (package.package_id, el.element_id)
        remote = self._remote.get(key)
        if remote is None:
            raise TwoChainsError(
                f"receiver has not loaded package {package.build.name!r}")
        bank, slot, seq = self._next_slot()
        if self.flow_control and slot == 0:
            yield from self._wait_bank_free(bank)

        flags = 0
        code = b""
        gotp = 0
        if inject:
            art = package.build.jam(element_name)
            if art.entry_off != 0:
                raise PackageError(
                    f"jam {element_name!r}: entry must be the first function "
                    "to be injectable")
            flags |= F_INJECTED
            code = node.mem.read(remote.code_addr, remote.code_size)
            if cfg.sender_sets_gotp:
                flags |= F_GOTP_SENDER
                gotp = remote.got_addr
        if no_exec:
            flags |= F_NO_EXEC

        payload = node.mem.read(payload_addr, payload_size) \
            if payload_size else b""
        wire = frame_wire_size(len(code), payload_size)
        if wire > self.info.frame_size:
            raise MailboxError(
                f"message needs {wire} B, remote frames are "
                f"{self.info.frame_size} B")
        if len(args) > 2:
            raise TwoChainsError("frames carry at most 2 inline arguments")
        frame = Frame(package_id=package.package_id,
                      element_id=el.element_id, flags=flags, seq=seq,
                      args=tuple(list(args) + [0] * (2 - len(args))),
                      code=code, payload=payload, gotp=gotp)
        blob = pack_frame(frame, self.info.frame_size)
        node.mem.write(self._staging, blob)

        # Pack cost: header build plus staging copies of code and payload.
        cost = cfg.pack_fixed_ns
        code_off = 48  # HDR + GOTP
        if code:
            cost += node.hier.stream_cost(rt.engine.now, rt.core,
                                          remote.code_addr, len(code), "read")
            cost += node.hier.stream_cost(rt.engine.now + cost, rt.core,
                                          self._staging + code_off, len(code),
                                          "write")
        if payload_size:
            cost += node.hier.stream_cost(rt.engine.now + cost, rt.core,
                                          payload_addr, payload_size, "read")
            cost += node.hier.stream_cost(rt.engine.now + cost, rt.core,
                                          self._staging + code_off + len(code),
                                          payload_size, "write")
        node.add_busy_ns(rt.core, cost)
        if _T.enabled:
            _T.span(node_pid(node.node_id), rt.core, "am.pack",
                    rt.engine.now, rt.engine.now + cost,
                    {"wire": wire, "inject": inject})
        yield Delay(cost)

        slot_addr = (self.info.addr
                     + (bank * self.info.slots + slot) * self.info.frame_size)
        req = self.ep.put_nbi(rt.engine.now, self._staging, slot_addr,
                              self.info.frame_size, self.info.rkey,
                              track=False)
        if _T.enabled:
            _T.span(node_pid(node.node_id), rt.core, "am.post",
                    rt.engine.now, rt.engine.now + req.cpu_ns)
        yield Delay(req.cpu_ns)
        self.sends += 1
        if _T.enabled:
            _T.span(node_pid(node.node_id), rt.core, "am.send",
                    t_send, rt.engine.now,
                    {"element": el.element_id, "inject": inject})
        if _M.enabled:
            end = rt.engine.now
            nid = node.node_id
            _M.count(f"tc_am_sends_total|node={nid}", end)
            _M.observe(f"tc_am_send_ns|node={nid}", end - t_send)
            node.hier.sample_metrics(_M, end)
        return req


class PreparedJam:
    """A pre-packed active message for repeated sending (perf-tool path).

    The frame (header, GOTP, code, payload) is staged once; each ``send``
    only refreshes the sequence tag and signal byte before the put — the
    same amount of per-message software work as a bare RDMA put, which is
    the design goal §VI states.
    """

    # per-send software cost of the tag/signal refresh
    _UPDATE_NS = 9.0

    def __init__(self, conn: Connection, package: LoadedPackage,
                 element_name: str, payload_addr: int, payload_size: int,
                 args: tuple[int, ...] = (), inject: bool = True,
                 no_exec: bool = False):
        rt = conn.rt
        node = rt.node
        el = package.element(element_name)
        remote = conn._remote.get((package.package_id, el.element_id))
        if remote is None:
            raise TwoChainsError(
                f"receiver has not loaded package {package.build.name!r}")
        flags = 0
        code = b""
        gotp = 0
        if inject:
            art = package.build.jam(element_name)
            if art.entry_off != 0:
                raise PackageError(
                    f"jam {element_name!r}: entry must be the first function")
            flags |= F_INJECTED
            code = node.mem.read(remote.code_addr, remote.code_size)
            if rt.cfg.sender_sets_gotp:
                flags |= F_GOTP_SENDER
                gotp = remote.got_addr
        if no_exec:
            flags |= F_NO_EXEC
        if len(args) > 2:
            raise TwoChainsError("frames carry at most 2 inline arguments")
        payload = node.mem.read(payload_addr, payload_size) \
            if payload_size else b""
        self.wire_size = frame_wire_size(len(code), payload_size)
        if self.wire_size > conn.info.frame_size:
            raise MailboxError(
                f"message needs {self.wire_size} B, remote frames are "
                f"{conn.info.frame_size} B")
        frame = Frame(package_id=package.package_id,
                      element_id=el.element_id, flags=flags, seq=1,
                      args=tuple(list(args) + [0] * (2 - len(args))),
                      code=code, payload=payload, gotp=gotp)
        self.conn = conn
        self.staging = node.map_region(conn.info.frame_size, PROT_RW,
                                       align=64, label="prepared")
        node.mem.write(self.staging, pack_frame(frame, conn.info.frame_size))
        # Building the frame is real CPU work; it also warms the sender's
        # caches so subsequent HCA reads of the staging buffer hit the LLC
        # (steady-state of a perf loop over a resident source buffer).
        build_cost = rt.cfg.pack_fixed_ns + node.hier.stream_cost(
            rt.engine.now, rt.core, self.staging, conn.info.frame_size,
            "write")
        node.add_busy_ns(rt.core, build_cost)

    def send(self):
        """Process body: refresh seq/signal, put the frame.  Returns the
        UcpRequest of the frame put (the signal put on unordered fabrics).

        On the paper's testbed inter-put ordering is enforced, so the
        whole frame — signal byte last — travels in ONE put.  On fabrics
        without that guarantee (``LinkParams.enforces_ordering=False``)
        the data put is followed by a fence and a separate 1-byte signal
        put (SS III-A), costing an extra post per message.
        """
        conn = self.conn
        rt = conn.rt
        t_send = rt.engine.now
        bank, slot, seq = conn._next_slot()
        if conn.flow_control and slot == 0:
            yield from conn._wait_bank_free(bank)
        fsize = conn.info.frame_size
        ordered = conn.ep.qp.link.enforces_ordering
        # seq lives at header byte 4; the signal byte is last.
        rt.node.mem.write_u8(self.staging + 4, seq)
        rt.node.mem.write_u8(self.staging + fsize - 1,
                             seq if ordered else 0)
        rt.node.add_busy_ns(rt.core, self._UPDATE_NS)
        if _T.enabled:
            pid = node_pid(rt.node.node_id)
            _T.span(pid, rt.core, "am.update", rt.engine.now,
                    rt.engine.now + self._UPDATE_NS)
        yield Delay(self._UPDATE_NS)
        slot_addr = (conn.info.addr
                     + (bank * conn.info.slots + slot) * fsize)
        req = conn.ep.put_nbi(rt.engine.now, self.staging, slot_addr,
                              fsize, conn.info.rkey, track=False)
        if _T.enabled:
            _T.span(node_pid(rt.node.node_id), rt.core, "am.post",
                    rt.engine.now, rt.engine.now + req.cpu_ns)
        yield Delay(req.cpu_ns)  # the post's software path is serial work
        if not ordered:
            # fence, then the signal byte in its own put
            conn.ep.qp.fence()
            rt.node.mem.write_u8(self.staging + fsize - 1, seq)
            req = conn.ep.put_nbi(rt.engine.now, self.staging + fsize - 1,
                                  slot_addr + fsize - 1, 1, conn.info.rkey,
                                  track=False)
            if _T.enabled:
                _T.span(node_pid(rt.node.node_id), rt.core, "am.post",
                        rt.engine.now, rt.engine.now + req.cpu_ns,
                        {"signal": True})
            yield Delay(req.cpu_ns)
        conn.sends += 1
        if _T.enabled:
            _T.span(node_pid(rt.node.node_id), rt.core, "am.send",
                    t_send, rt.engine.now, {"prepared": True})
        if _M.enabled:
            end = rt.engine.now
            nid = rt.node.node_id
            _M.count(f"tc_am_sends_total|node={nid}", end)
            _M.observe(f"tc_am_send_ns|node={nid}", end - t_send)
            rt.node.hier.sample_metrics(_M, end)
        return req


def connect_runtimes(sender: TwoChainsRuntime, receiver: TwoChainsRuntime,
                     mailbox: Mailbox, flow_control: bool = False
                     ) -> Connection:
    """The out-of-band setup exchange: sender learns mailbox geometry,
    rkey, and the receiver's element GOT addresses; the receiver (via
    ``Connection.flag_target``) learns where the sender's bank flags live."""
    return Connection(sender, receiver, mailbox, flow_control=flow_control)
