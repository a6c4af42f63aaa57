"""Parity-protected instruction and data caches.

The Thor RD's headline improvement over the original Thor is "parity
protected instruction and data caches".  That parity logic is the error
detection mechanism that SCIFI experiments most directly exercise: a
bit flip injected (through the scan chains) into a cache line's data,
tag or valid bit is caught the next time the line is read, because the
stored parity bit no longer matches.  A simultaneous flip of the parity
bit itself masks the error — exactly the escape path real parity has.

The caches are direct mapped with one 32-bit word per line and
write-through/write-allocate data handling, which keeps the timing model
simple (the simulator counts instructions, not stalls) while preserving
the *detection* behaviour the paper's experiments depend on.

Parity is maintained *lazily*: a cache-internal fill or write leaves the
line "in sync by construction" (the parity bit is recomputed from the
payload only when somebody observes it — a scan-chain dump, a state
snapshot, or an explicit ``parity`` read), so the fetch/store hot loop
never pays for a popcount.  Any *external* mutation of a line field
(scan injection, fault overlay, a test poking ``line.data``) goes
through the field properties, which first materialise the pending parity
— from that point the stored parity bit is ordinary state that the next
read checks, exactly as with eager parity.  The observable values are
bit-identical to the eager scheme in all cases.
"""

from __future__ import annotations

from .isa import ADDR_BITS, WORD_MASK


def parity_bit(value: int) -> int:
    """Even-parity bit of an arbitrary non-negative integer."""
    return value.bit_count() & 1


class CacheParityError(Exception):
    """A parity mismatch detected on a cache-line read."""

    def __init__(self, cache_name: str, index: int, address: int) -> None:
        super().__init__(
            f"{cache_name} parity error on line {index} (address 0x{address:04X})"
        )
        self.cache_name = cache_name
        self.index = index
        self.address = address


class CacheLine:
    """One direct-mapped cache line.

    All four fields are state elements reachable from the internal scan
    chain, so fault injection may corrupt any of them independently.
    ``_dirty`` means "parity tracks the payload by construction" (the
    line was last written by the cache itself); it is cleared the moment
    the parity bit is observed or any field is mutated from outside.
    """

    __slots__ = ("_valid", "_tag", "_data", "_parity", "_dirty")

    def __init__(self, valid: int = 0, tag: int = 0, data: int = 0, parity: int = 0) -> None:
        self._valid = valid
        self._tag = tag
        self._data = data
        self._parity = parity
        self._dirty = False

    # -- externally visible fields (mutation desynchronises parity) ----
    @property
    def valid(self) -> int:
        return self._valid

    @valid.setter
    def valid(self, value: int) -> None:
        if self._dirty:
            self._materialize()
        self._valid = value

    @property
    def tag(self) -> int:
        return self._tag

    @tag.setter
    def tag(self, value: int) -> None:
        if self._dirty:
            self._materialize()
        self._tag = value

    @property
    def data(self) -> int:
        return self._data

    @data.setter
    def data(self, value: int) -> None:
        if self._dirty:
            self._materialize()
        self._data = value

    @property
    def parity(self) -> int:
        if self._dirty:
            self._materialize()
        return self._parity

    @parity.setter
    def parity(self, value: int) -> None:
        self._parity = value
        self._dirty = False

    # ------------------------------------------------------------------
    def payload(self) -> int:
        """The bits covered by the parity code (valid, tag and data)."""
        return (self._valid << 63) | (self._tag << 32) | self._data

    def _materialize(self) -> None:
        """Settle the lazily deferred parity bit (same value an eager
        recompute at write time would have stored: the payload has not
        changed since the cache last wrote the line)."""
        self._parity = self.payload().bit_count() & 1
        self._dirty = False

    def recompute_parity(self) -> None:
        """Re-synchronise the parity bit with the current payload."""
        self._parity = self.payload().bit_count() & 1
        self._dirty = False

    def parity_ok(self) -> bool:
        if self._dirty:
            return True  # in sync by construction; nothing mutated it
        return self.payload().bit_count() & 1 == self._parity


class Cache:
    """A direct-mapped, parity-protected cache.

    The cache sits in front of a ``read(address) -> word`` backing
    callable (main memory).  ``read`` returns the cached word, filling
    on a miss; ``write`` updates a present line (write-through handled
    by the caller, which always writes memory too).
    """

    def __init__(self, name: str, lines: int, read_backing) -> None:
        if lines <= 0 or lines & (lines - 1):
            raise ValueError("cache line count must be a positive power of two")
        self.name = name
        self.num_lines = lines
        self._index_bits = lines.bit_length() - 1
        self._index_mask = lines - 1
        self._read_backing = read_backing
        self.lines = [CacheLine() for _ in range(lines)]
        #: Counters for the analysis phase / benchmarks.
        self.hits = 0
        self.misses = 0
        self.parity_errors = 0

    # ------------------------------------------------------------------
    def read(self, address: int) -> int:
        """Read a word through the cache, checking parity on a hit.

        Raises :class:`CacheParityError` when the stored parity bit does
        not cover the line's current contents — the hardware detection
        event a SCIFI-injected cache fault produces.
        """
        index = address & self._index_mask
        tag = (address >> self._index_bits) & 0xFFFF
        line = self.lines[index]
        if line._valid and line._tag == tag:
            if not line._dirty:
                if line.payload().bit_count() & 1 != line._parity:
                    self.parity_errors += 1
                    raise CacheParityError(self.name, index, address)
                # The check just proved parity covers the payload, so the
                # line is back "in sync by construction": later hits can
                # skip the popcount, and materialisation recomputes the
                # exact bit the check matched.
                line._dirty = True
            self.hits += 1
            return line._data
        self.misses += 1
        word = self._read_backing(address) & WORD_MASK
        line._valid = 1
        line._tag = tag
        line._data = word
        line._dirty = True
        return word

    def write(self, address: int, value: int) -> None:
        """Write-allocate update of the cached copy (write-through is the
        caller's job: memory is always written as well)."""
        line = self.lines[address & self._index_mask]
        line._valid = 1
        line._tag = (address >> self._index_bits) & 0xFFFF
        line._data = value & WORD_MASK
        line._dirty = True

    def holding(self, address: int) -> CacheLine | None:
        """The line caching ``address``, or ``None`` when it is not
        cached."""
        line = self.lines[address & self._index_mask]
        if line._valid and line._tag == (address >> self._index_bits) & 0xFFFF:
            return line
        return None

    def snoop_invalidate(self, address: int) -> None:
        """Invalidate the line holding ``address``, if present.

        The test card issues this on host DMA writes so the CPU never
        reads a stale cached copy of memory the host (environment
        simulator, SWIFI injector) has just rewritten — the coherence a
        real DMA-capable test card provides.
        """
        line = self.holding(address)
        if line is not None:
            line._valid = 0
            line._dirty = True  # parity follows the payload again

    def update(self, address: int, value: int) -> None:
        """Write ``value`` into the line holding ``address``, parity in
        step, when the word is cached; allocate nothing."""
        line = self.holding(address)
        if line is not None:
            line._data = value & WORD_MASK
            line._dirty = True

    def invalidate(self) -> None:
        """Flush the cache (target re-initialisation)."""
        for line in self.lines:
            line._valid = 0
            line._tag = 0
            line._data = 0
            line._parity = 0
            line._dirty = False
        self.hits = 0
        self.misses = 0
        self.parity_errors = 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Snapshot the lines (incl. parity bits — a desynchronised
        parity is state, not an error until read) and the counters."""
        return {
            "lines": [(l._valid, l._tag, l._data, l.parity) for l in self.lines],
            "hits": self.hits,
            "misses": self.misses,
            "parity_errors": self.parity_errors,
        }

    def restore_state(self, state: dict) -> None:
        # Mutate the existing CacheLine objects in place: the scan-chain
        # elements hold references to this cache and its lines.
        for line, (valid, tag, data, parity) in zip(self.lines, state["lines"]):
            line._valid = valid
            line._tag = tag
            line._data = data
            line._parity = parity
            line._dirty = False
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.parity_errors = state["parity_errors"]

    # ------------------------------------------------------------------
    # Scan-chain support: the cache's state elements as named bit fields.
    # ------------------------------------------------------------------
    def scan_fields(self) -> list[tuple[str, int]]:
        """(field name, width) pairs describing every scannable element,
        in scan order."""
        fields: list[tuple[str, int]] = []
        tag_bits = ADDR_BITS - self._index_bits
        for i in range(self.num_lines):
            fields.append((f"{self.name}.line{i}.valid", 1))
            fields.append((f"{self.name}.line{i}.tag", tag_bits))
            fields.append((f"{self.name}.line{i}.data", 32))
            fields.append((f"{self.name}.line{i}.parity", 1))
        return fields

    def scan_get(self, field: str) -> int:
        line, attr = self._locate(field)
        return getattr(line, attr)

    def scan_set(self, field: str, value: int) -> None:
        line, attr = self._locate(field)
        setattr(line, attr, value)

    def _locate(self, field: str) -> tuple[CacheLine, str]:
        # field is "<cache>.line<i>.<attr>"
        _, line_part, attr = field.split(".")
        index = int(line_part.removeprefix("line"))
        return self.lines[index], attr
