"""Plain-text graph I/O.

Edge-list format, one edge per line:

    # comment lines start with a hash; trailing comments are allowed
    n=9            # optional header, needed only for trailing isolated vertices
    0 1
    1 2

Without the ``n=`` header the vertex count is max endpoint + 1. Malformed
lines are reported with their 1-based line number.

Kernel instances reuse the same format, prefixed by comment headers
(``# k_new=``, ``# z=``, ``# y=``, ``# gadget=``) so a kernel file is also a
valid edge-list file for any command that just wants the graph.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError
from .graph import Graph, build_graph


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse edge-list text into (n, edges); see module docstring for the
    format. Raises :class:`InputError` with the offending line number."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if edges or n is not None:
                raise InputError(f"line {lineno}: n= header must come first")
            try:
                n = int(line[2:])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {line[2:]!r}") from None
            if n < 0:
                raise InputError(f"line {lineno}: vertex count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer endpoint in {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: negative vertex id in {raw.strip()!r}")
        if n is not None and (u >= n or v >= n):
            raise InputError(f"line {lineno}: endpoint beyond declared n={n}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    if n is None:
        n = max_seen + 1
    return n, edges


def parse_id_list(text: str) -> list[int]:
    """Vertex ids separated by whitespace or newlines; '#' starts a comment."""
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError:
                raise InputError(f"line {lineno}: non-integer id {tok!r}") from None
            if value < 0:
                raise InputError(f"line {lineno}: negative vertex id {value}")
            ids.append(value)
    return ids


def _read(path: str | Path) -> str:
    p = Path(path)
    try:
        return p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None


def save_text(path: str | Path, text: str) -> None:
    p = Path(path)
    try:
        p.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {p}: {exc}") from None


def load_id_list(path: str | Path) -> list[int]:
    return parse_id_list(_read(path))


def graph_from_text(text: str) -> Graph:
    n, edges = parse_edge_list(text)
    return build_graph(n, edges)


def load_graph(path: str | Path) -> Graph:
    return graph_from_text(_read(path))


def edge_list_text(g: Graph) -> str:
    """Serialize deterministically: header, then edges sorted ascending."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path: str | Path) -> None:
    save_text(path, edge_list_text(g))


def kernel_text(
    g: Graph,
    k_new: int,
    z_ids: list[int],
    y_ids: list[int],
    gadget_ids: list[int],
) -> str:
    """Kernel-instance serialization: comment headers plus the edge list."""
    lines = [
        f"# k_new={k_new}",
        "# z=" + ",".join(str(v) for v in sorted(z_ids)),
        "# y=" + ",".join(str(v) for v in sorted(y_ids)),
        "# gadget=" + ",".join(str(v) for v in gadget_ids),
    ]
    return "\n".join(lines) + "\n" + edge_list_text(g)


def parse_kernel_header(text: str) -> dict[str, object]:
    """Read back the kernel comment headers; the graph itself is parsed by
    :func:`parse_edge_list` (headers are comments to it)."""
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#"):
            continue
        body = line[1:].strip()
        for key in ("k_new", "z", "y", "gadget"):
            prefix = key + "="
            if body.startswith(prefix):
                value = body[len(prefix):]
                try:
                    if key == "k_new":
                        fields[key] = int(value)
                    else:
                        fields[key] = [int(x) for x in value.split(",")] if value else []
                except ValueError:
                    raise InputError(f"line {lineno}: bad {key} header") from None
    missing = [k for k in ("k_new", "z", "y", "gadget") if k not in fields]
    if missing:
        raise InputError(f"kernel file is missing headers: {missing}")
    return fields
