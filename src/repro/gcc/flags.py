"""The compiler-flag design space of the paper.

Two sub-spaces are involved:

* the **standard levels** -Os/-O1/-O2/-O3, always part of the SOCRATES
  autotuning space;
* the **COBAYN space**: 128 combinations (a base level in {-O2, -O3}
  crossed with the six transformation flags of Chen et al.), which
  COBAYN prunes down to four custom combinations (CF1..CF4 in the
  paper's Figure 4).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple


class OptLevel(enum.Enum):
    """GCC standard optimization level."""

    OS = "Os"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"

    @property
    def gcc_name(self) -> str:
        return f"-{self.value}"


class Flag(enum.Enum):
    """The six transformation flags of the paper (Section II)."""

    UNSAFE_MATH = "funsafe-math-optimizations"
    NO_GUESS_BRANCH_PROBABILITY = "fno-guess-branch-probability"
    NO_IVOPTS = "fno-ivopts"
    NO_TREE_LOOP_OPTIMIZE = "fno-tree-loop-optimize"
    NO_INLINE_FUNCTIONS = "fno-inline-functions"
    UNROLL_ALL_LOOPS = "funroll-all-loops"

    @property
    def gcc_name(self) -> str:
        return f"-{self.value}"

    @property
    def pragma_name(self) -> str:
        """Name used inside ``#pragma GCC optimize("...")``."""
        return self.value[1:]  # strip the 'f'


ALL_FLAGS: Tuple[Flag, ...] = tuple(Flag)

#: Size of the COBAYN compiler space (as in the original COBAYN paper).
COBAYN_SPACE_SIZE = 128


@dataclass(frozen=True)
class FlagConfiguration:
    """One point of the compiler sub-space: a level plus toggled flags."""

    level: OptLevel
    flags: FrozenSet[Flag] = frozenset()

    @functools.cached_property
    def label(self) -> str:
        """Command-line style label, e.g. ``-O2 -fno-ivopts``.

        Computed once per instance: it keys the compile cache, the
        engine's truth cache and the knowledge-base compiler knob.
        """
        parts = [self.level.gcc_name]
        parts.extend(flag.gcc_name for flag in sorted(self.flags, key=lambda f: f.value))
        return " ".join(parts)

    @property
    def pragma_text(self) -> str:
        """GCC function-attribute pragma enabling this configuration.

        Matches the paper's example:
        ``#pragma GCC optimize ("O2,no-inline")``.
        """
        names = [self.level.value]
        names.extend(flag.pragma_name for flag in sorted(self.flags, key=lambda f: f.value))
        return 'GCC optimize ("' + ",".join(names) + '")'

    @property
    def mangled(self) -> str:
        """Identifier-safe suffix for cloned kernel names."""
        parts = [self.level.value]
        parts.extend(
            flag.pragma_name.replace("-", "_")
            for flag in sorted(self.flags, key=lambda f: f.value)
        )
        return "_".join(parts)

    def has(self, flag: Flag) -> bool:
        return flag in self.flags

    def __str__(self) -> str:
        return self.label


def standard_levels() -> List[FlagConfiguration]:
    """The four plain -Os/-O1/-O2/-O3 configurations."""
    return [FlagConfiguration(level=level) for level in OptLevel]


def cobayn_space() -> List[FlagConfiguration]:
    """The 128-point COBAYN compiler space: {O2, O3} x 2^6 flags."""
    space: List[FlagConfiguration] = []
    for level in (OptLevel.O2, OptLevel.O3):
        for mask in range(2 ** len(ALL_FLAGS)):
            flags = frozenset(
                flag for index, flag in enumerate(ALL_FLAGS) if mask & (1 << index)
            )
            space.append(FlagConfiguration(level=level, flags=flags))
    assert len(space) == COBAYN_SPACE_SIZE
    return space


def parse_label(label: str) -> FlagConfiguration:
    """Inverse of :attr:`FlagConfiguration.label`.

    Accepts e.g. ``"-O3 -fno-ivopts -funroll-all-loops"``.
    """
    level: OptLevel | None = None
    flags: set = set()
    for token in label.split():
        name = token.lstrip("-")
        matched = False
        for candidate in OptLevel:
            if candidate.value == name:
                level = candidate
                matched = True
                break
        if matched:
            continue
        for flag in Flag:
            if flag.value == name:
                flags.add(flag)
                matched = True
                break
        if not matched:
            raise ValueError(f"unknown flag token {token!r} in {label!r}")
    if level is None:
        raise ValueError(f"no optimization level in {label!r}")
    return FlagConfiguration(level=level, flags=frozenset(flags))


def parse_pragma(text: str) -> FlagConfiguration:
    """Inverse of :attr:`FlagConfiguration.pragma_text`.

    Accepts the text of a ``#pragma GCC optimize ("...")`` line (with
    or without the ``GCC optimize`` prefix) and rebuilds the
    configuration, so a weaved source can be mapped back onto the
    compiler space it was generated from.
    """
    body = text.strip()
    if body.startswith("GCC optimize"):
        body = body[len("GCC optimize") :].strip()
    body = body.strip("()").strip().strip('"')
    level: OptLevel | None = None
    flags: set = set()
    for name in filter(None, (part.strip() for part in body.split(","))):
        matched = False
        for candidate in OptLevel:
            if candidate.value == name:
                level = candidate
                matched = True
                break
        if matched:
            continue
        for flag in Flag:
            if flag.pragma_name == name:
                flags.add(flag)
                matched = True
                break
        if not matched:
            raise ValueError(f"unknown optimize pragma entry {name!r} in {text!r}")
    if level is None:
        raise ValueError(f"no optimization level in pragma {text!r}")
    return FlagConfiguration(level=level, flags=frozenset(flags))


def paper_custom_flags() -> List[FlagConfiguration]:
    """The four COBAYN-suggested combinations reported in the paper.

    Figure 4's caption lists, for 2mm:
      CF1: O3, no-guess-branch-probability, no-ivopts,
           no-tree-loop-optimize, no-inline
      CF2: O2, no-inline, unroll-all-loops
      CF3: O2, unsafe-math-optimizations, no-ivopts,
           no-tree-loop-optimize, unroll-all-loops
      CF4: O2, no-inline
    """
    return [
        FlagConfiguration(
            OptLevel.O3,
            frozenset(
                {
                    Flag.NO_GUESS_BRANCH_PROBABILITY,
                    Flag.NO_IVOPTS,
                    Flag.NO_TREE_LOOP_OPTIMIZE,
                    Flag.NO_INLINE_FUNCTIONS,
                }
            ),
        ),
        FlagConfiguration(
            OptLevel.O2,
            frozenset({Flag.NO_INLINE_FUNCTIONS, Flag.UNROLL_ALL_LOOPS}),
        ),
        FlagConfiguration(
            OptLevel.O2,
            frozenset(
                {
                    Flag.UNSAFE_MATH,
                    Flag.NO_IVOPTS,
                    Flag.NO_TREE_LOOP_OPTIMIZE,
                    Flag.UNROLL_ALL_LOOPS,
                }
            ),
        ),
        FlagConfiguration(OptLevel.O2, frozenset({Flag.NO_INLINE_FUNCTIONS})),
    ]
