"""Output checks computed from the inputs.

Each per-case check takes the parsed output document and returns a list
of error strings. Each cross check is a pair: the case a failure counts
against, and a function of one round's outputs by case name. The runner
also pins stdout hashes for the default seed.
"""

from __future__ import annotations

from fractions import Fraction


def grid(step: int, q: int, top: int) -> list:
    """Degrees n >= -1 with n = q mod step, as the engine grades them."""
    q %= step
    bottom = -1 if (-1 - q) % step == 0 else q
    return list(range(bottom, top + 1, step))


def euler(dims: dict, step: int, q: int):
    """The alternating sum of reported free ranks equals that of the chain
    dimensions along the offset grid."""
    degrees = grid(step, q, max(dims))

    def check(doc):
        rows = doc.get("groups")
        if rows is None:
            return ["no 'groups' in output"]
        got = [r["n"] for r in rows]
        if got != degrees:
            return [f"degrees {got} differ from the grid {degrees}"]
        chi_h = sum((-1) ** p * r["free_rank"] for p, r in enumerate(rows))
        chi_c = sum((-1) ** p * dims.get(n, 0) for p, n in enumerate(degrees))
        if chi_h != chi_c:
            return [f"Euler characteristic {chi_h} of the ranks, {chi_c} of the chains"]
        return []
    return check


def flag(key: str):
    def check(doc):
        return [] if doc.get(key) is True else [f"{key!r} is {doc.get(key)!r}"]
    return check


def equals(key: str, value):
    def check(doc):
        return [] if doc.get(key) == value else [f"{key!r} is {doc.get(key)!r}, not {value!r}"]
    return check


def map_shapes():
    """Induced-map matrices have target_rank rows of source_rank entries."""
    def check(doc):
        errors = []
        for m in doc.get("maps", [doc]):
            rows = m.get("matrix")
            if rows is None or len(rows) != m.get("target_rank") or any(
                len(r) != m.get("source_rank") for r in rows
            ):
                errors.append(f"map {m.get('source_n')}->{m.get('target_n')} has a bad shape")
        return errors
    return check


def error_document():
    def check(doc):
        ok = set(doc) == {"error", "detail"} and isinstance(doc["error"], str)
        return [] if ok else ["not an error document"]
    return check


def free_ranks_agree(z_case: str, q_case: str):
    """The free rank over Z equals the Betti number over Q."""
    def check(outputs):
        z, q = outputs.get(z_case), outputs.get(q_case)
        if z is None or q is None:
            return [f"{z_case} or {q_case} produced no output"]
        zr = [(r["n"], r["free_rank"]) for r in z["groups"]]
        qr = [(r["n"], r["free_rank"]) for r in q["groups"]]
        return [] if zr == qr else [f"{z_case} free ranks {zr}, {q_case} Betti numbers {qr}"]
    return z_case, check


def barcode_matches_grid(bar_case: str, persist_case: str):
    """Bars alive over [x, y] equal the persistent rank of x -> y."""
    def check(outputs):
        bars, pr = outputs.get(bar_case), outputs.get(persist_case)
        if bars is None or pr is None:
            return [f"{bar_case} or {persist_case} produced no output"]
        errors = []
        for cell in pr["ranks"]:
            x, y = Fraction(cell["from"]), Fraction(cell["to"])
            alive = sum(
                b["mult"] for b in bars["bars"]
                if Fraction(b["birth"]) <= x
                and (b["death"] == "inf" or Fraction(b["death"]) > y)
            )
            if alive != cell["rank"]:
                errors.append(f"{alive} bars alive on [{x}, {y}], rank {cell['rank']}")
        return errors
    return bar_case, check
