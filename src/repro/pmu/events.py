"""Named-event registry of the emulated POWER5 PMU.

Every counter the simulator maintains is exposed under a stable,
POWER5-flavoured ``PM_*`` name.  The registry is the single source of
truth for event identity: :class:`repro.pmu.counters.CounterBank`
captures exactly these events, the CLI prints them in this order, and
the differential test-suite asserts their values are bit-identical
between the object and array engines.

Events are grouped the way the paper reasons about the machine:
decode-slot accounting (the substrate of Eq. 1 and the CPI stack),
instruction flow, the memory hierarchy, branch/flush disruptions, the
dynamic resource balancer, functional-unit pressure, and the
software-priority interface itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventDef:
    """One named PMU event."""

    name: str
    group: str
    description: str


#: Every event of the emulated PMU, in canonical report order.
EVENTS: tuple[EventDef, ...] = (
    # -- cycles / instruction flow -----------------------------------
    EventDef("PM_CYC", "cycles", "simulated cycles (same for both threads)"),
    EventDef("PM_INST_DISP", "inst", "instructions decoded/dispatched "
             "(net of balancer-flush squashes)"),
    EventDef("PM_INST_CMPL", "inst", "instructions retired"),
    EventDef("PM_GRP_DISP", "inst", "groups dispatched into the GCT"),
    # -- decode-slot accounting (partitions PM_SLOT_GRANT) -----------
    EventDef("PM_SLOT_GRANT", "slots", "decode slots owned by the thread "
             "(arbiter grants, Eq. 1)"),
    EventDef("PM_SLOT_DECODE", "slots", "owned slots that decoded a group"),
    EventDef("PM_SLOT_LOST_STALL", "slots", "owned slots lost to a "
             "branch-redirect or flush-penalty stall"),
    EventDef("PM_SLOT_LOST_BAL", "slots", "owned slots lost to the "
             "balancer's GCT-occupancy decode stall"),
    EventDef("PM_SLOT_LOST_THROTTLE", "slots", "owned slots lost to the "
             "balancer's decode throttle duty-cycle"),
    EventDef("PM_SLOT_LOST_GCT", "slots", "owned slots lost to a full "
             "global completion table"),
    EventDef("PM_SLOT_LOST_OTHER", "slots", "owned slots lost on "
             "defensive decode paths (empty group)"),
    EventDef("PM_SLOT_WASTED", "slots", "all owned-but-undecoded slots "
             "except GCT-full losses (aggregate)"),
    # -- memory hierarchy --------------------------------------------
    EventDef("PM_LD_L1_HIT", "memory", "loads serviced by the L1D"),
    EventDef("PM_LD_L2_HIT", "memory", "loads serviced by the L2"),
    EventDef("PM_LD_L3_HIT", "memory", "loads serviced by the L3"),
    EventDef("PM_LD_MEM", "memory", "loads serviced by DRAM"),
    EventDef("PM_ST_CMPL", "memory", "stores completed"),
    EventDef("PM_TLB_MISS", "memory", "TLB misses"),
    EventDef("PM_LMQ_ACQ", "memory", "load-miss-queue slots acquired "
             "(L1D load misses)"),
    EventDef("PM_LMQ_WAIT_CYC", "memory", "cycles misses waited for a "
             "free LMQ slot"),
    EventDef("PM_DRAM_ACCESS", "memory", "DRAM bus transfers"),
    EventDef("PM_DRAM_QUEUE_CYC", "memory", "cycles DRAM accesses queued "
             "behind the serialized bus"),
    EventDef("PM_PREF_ALLOC", "memory", "prefetch streams allocated by "
             "the stride detector"),
    EventDef("PM_PREF_ISSUE", "memory", "prefetch fills issued to memory "
             "(LMQ/bus/DRAM traffic)"),
    EventDef("PM_LD_PREF_HIT", "memory", "L1-missing loads fully covered "
             "by an in-flight prefetch fill"),
    EventDef("PM_PREF_USELESS", "memory", "prefetch fills wasted (target "
             "already cached, or dropped unconsumed)"),
    EventDef("PM_PREF_LATE", "memory", "L1-missing loads that caught "
             "their prefetch fill in flight (partial cover)"),
    # -- disruptions --------------------------------------------------
    EventDef("PM_BR_MPRED", "disrupt", "branch mispredict redirects"),
    EventDef("PM_BAL_FLUSH", "disrupt", "balancer flushes of this thread"),
    EventDef("PM_BAL_FLUSH_INST", "disrupt", "instructions squashed by "
             "balancer flushes"),
    EventDef("PM_BAL_STALL_EV", "disrupt", "balancer decode-stall "
             "episodes"),
    EventDef("PM_BAL_STALL_CYC", "disrupt", "cycles spent in balancer "
             "decode stall"),
    EventDef("PM_BAL_THROTTLE_WIN", "disrupt", "monitoring windows that "
             "turned the decode throttle on"),
    # -- functional-unit pressure ------------------------------------
    EventDef("PM_FXU_ISSUE", "fu", "operations issued to the FXU pool"),
    EventDef("PM_LSU_ISSUE", "fu", "operations issued to the LSU pool"),
    EventDef("PM_FPU_ISSUE", "fu", "operations issued to the FPU pool"),
    EventDef("PM_BXU_ISSUE", "fu", "operations issued to the BXU"),
    EventDef("PM_FU_WAIT_CYC", "fu", "cycles dispatched instructions "
             "waited for a busy functional unit"),
    EventDef("PM_OPERAND_WAIT_CYC", "fu", "cycles dispatched instructions "
             "waited for source operands past the front-end depth"),
    # -- software-priority interface ---------------------------------
    EventDef("PM_PRIO_CHANGE", "priority", "software priority requests "
             "that took effect (applied or-nops, kernel sysfs writes "
             "and hypervisor calls)"),
)

#: Event name -> position in :data:`EVENTS`.
EVENT_INDEX: dict[str, int] = {e.name: i for i, e in enumerate(EVENTS)}

#: Canonical event-name tuple (capture order of the CounterBank).
EVENT_NAMES: tuple[str, ...] = tuple(e.name for e in EVENTS)


def event(name: str) -> EventDef:
    """Look up one event definition by name."""
    try:
        return EVENTS[EVENT_INDEX[name]]
    except KeyError:
        raise KeyError(f"unknown PMU event {name!r}; "
                       f"see repro.pmu.events.EVENTS") from None
