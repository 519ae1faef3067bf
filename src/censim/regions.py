"""Austrian administrative region codes and the fine/coarse level order.

Seven nested regional levels are supported, from the whole country down to
Viennese registration districts.  Codes follow the ISO-style scheme of the
national statistics office:

  country                               "AT"
  federalstates                         "AT-1" .. "AT-9"
  districts                             three digits, the first names the
                                        federalstate; Vienna as a whole is "900"
  districts_districts                   like districts, but Vienna split into
                                        its municipal districts "901" .. "923"
  municipalities                        five digits, the first three name the
                                        district; Vienna as a whole is "90001"
  municipalities_districts              like municipalities, but Vienna split
                                        into "90101", "90201", .., "92301"
  municipalities_registrationdistricts  non-Viennese municipality codes reused;
                                        Viennese codes are seven digits whose
                                        first five name the municipal district

municipalities and districts_districts split Vienna along different axes and
are therefore incomparable; every other pair of levels is ordered.  The
partial order is the transitive closure of the cover edges in _COVER below.
"""

from __future__ import annotations

from .errors import DataError

LEVELS = (
    "country",
    "federalstates",
    "districts",
    "districts_districts",
    "municipalities",
    "municipalities_districts",
    "municipalities_registrationdistricts",
)

# Immediate coarser neighbours of each level.  municipalities_districts has
# two: it refines Vienna below both five-digit schemes at once.
_COVER = {
    "country": (),
    "federalstates": ("country",),
    "districts": ("federalstates",),
    "districts_districts": ("districts",),
    "municipalities": ("districts",),
    "municipalities_districts": ("municipalities", "districts_districts"),
    "municipalities_registrationdistricts": ("municipalities_districts",),
}


def _ancestor_closure() -> dict[str, frozenset[str]]:
    out: dict[str, frozenset[str]] = {}

    def walk(level: str) -> frozenset[str]:
        if level not in out:
            acc: set[str] = set()
            for up in _COVER[level]:
                acc.add(up)
                acc |= walk(up)
            out[level] = frozenset(acc)
        return out[level]

    for name in LEVELS:
        walk(name)
    return out


_ANCESTORS = _ancestor_closure()


def check_level(level: str) -> None:
    if level not in LEVELS:
        raise DataError(f"unknown regional level {level!r}")


def compare_levels(a: str, b: str) -> str:
    """Order two levels: 'finer', 'coarser', 'equal' or 'incomparable'."""
    check_level(a)
    check_level(b)
    if a == b:
        return "equal"
    if b in _ANCESTORS[a]:
        return "finer"
    if a in _ANCESTORS[b]:
        return "coarser"
    return "incomparable"


def coarser_or_equal(a: str, b: str) -> bool:
    """True if level a is coarser than or equal to level b."""
    return compare_levels(a, b) in ("coarser", "equal")


def is_valid_code(code: str, level: str) -> bool:
    check_level(level)
    if level == "country":
        return code == "AT"
    if level == "federalstates":
        return len(code) == 4 and code.startswith("AT-") and code[3] in "123456789"
    if not code.isdigit():
        return False
    if level == "districts":
        return len(code) == 3 and code[0] != "0" and (code[0] != "9" or code == "900")
    if level == "districts_districts":
        return len(code) == 3 and code[0] != "0" and (code[0] != "9" or 901 <= int(code) <= 923)
    if level == "municipalities":
        if len(code) != 5 or code[0] == "0":
            return False
        return code == "90001" if code[0] == "9" else True
    if level == "municipalities_districts":
        if len(code) != 5 or code[0] == "0":
            return False
        if code[0] != "9":
            return True
        # Viennese codes are the municipal district followed by "01".
        return code[3:] == "01" and 1 <= int(code[1:3]) <= 23
    # municipalities_registrationdistricts
    if len(code) == 5:
        return code[0] in "12345678"
    if len(code) == 7 and code[0] == "9":
        return is_valid_code(code[:5], "municipalities_districts")
    return False


def validate_code(code: str, level: str) -> None:
    if not is_valid_code(code, level):
        raise DataError(f"invalid region code {code!r} for level {level!r}")


# One-step parent maps along the cover edges.  Non-Viennese codes pass through
# the Vienna-splitting edges unchanged.
_STEP = {
    ("federalstates", "country"): lambda c: "AT",
    ("districts", "federalstates"): lambda c: "AT-" + c[0],
    ("districts_districts", "districts"): lambda c: "900" if c[0] == "9" else c,
    ("municipalities", "districts"): lambda c: c[:3],
    ("municipalities_districts", "municipalities"): lambda c: "90001" if c[0] == "9" else c,
    ("municipalities_districts", "districts_districts"): lambda c: c[:3],
    ("municipalities_registrationdistricts", "municipalities_districts"): (
        lambda c: c[:5] if len(c) == 7 else c
    ),
}


def _paths() -> dict[tuple[str, str], tuple[str, ...]]:
    # Shortest chain of levels from each level up to each of its ancestors.
    # Where two routes exist (via municipalities or districts_districts) the
    # step maps commute, so either choice is correct.
    out: dict[tuple[str, str], tuple[str, ...]] = {}
    for frm in LEVELS:
        frontier = [(frm,)]
        while frontier:
            path = frontier.pop(0)
            for up in _COVER[path[-1]]:
                if (frm, up) not in out:
                    out[(frm, up)] = path[1:] + (up,)
                    frontier.append(path + (up,))
    return out


_PATH = _paths()


def parent_region(code: str, from_level: str, to_level: str) -> str:
    """Ancestor of a region code at a coarser (or the same) level."""
    validate_code(code, from_level)
    check_level(to_level)
    if from_level == to_level:
        return code
    if to_level not in _ANCESTORS[from_level]:
        raise DataError(
            f"level {to_level!r} is not coarser than {from_level!r}"
        )
    here = from_level
    for up in _PATH[(from_level, to_level)]:
        code = _STEP[(here, up)](code)
        here = up
    return code


class RegionManifest:
    """The fixed region universe of one run: valid codes per level.

    Census data refers to region codes; the manifest says which codes exist.
    One manifest per run, no area-status time dependence.
    """

    def __init__(self, codes_by_level: dict[str, tuple[str, ...]]):
        cleaned: dict[str, tuple[str, ...]] = {}
        for level, codes in codes_by_level.items():
            check_level(level)
            for code in codes:
                validate_code(code, level)
            if len(set(codes)) != len(codes):
                raise DataError(f"duplicate region codes at level {level!r}")
            cleaned[level] = tuple(sorted(codes))
        self._codes = cleaned
        self._groups: dict[tuple[str, str], dict[str, tuple[str, ...]]] = {}

    def codes(self, level: str) -> tuple[str, ...]:
        check_level(level)
        if level not in self._codes:
            raise DataError(f"manifest lists no codes at level {level!r}")
        return self._codes[level]

    def has_level(self, level: str) -> bool:
        return level in self._codes

    def descendants(self, code: str, level: str, fine_level: str) -> tuple[str, ...]:
        """Manifest codes at fine_level whose ancestor at level equals code."""
        if fine_level == level:
            validate_code(code, level)
            return (code,)
        if not coarser_or_equal(level, fine_level):
            raise DataError(
                f"level {level!r} is not coarser than {fine_level!r}"
            )
        group = self._groups.get((level, fine_level))
        if group is None:
            acc: dict[str, list[str]] = {}
            for fine in self.codes(fine_level):
                acc.setdefault(parent_region(fine, fine_level, level), []).append(fine)
            group = {parent: tuple(fines) for parent, fines in acc.items()}
            self._groups[(level, fine_level)] = group
        return group.get(code, ())
