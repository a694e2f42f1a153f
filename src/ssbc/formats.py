"""On-disk formats: codes files, JSON reports and documents, flat CSV reports.

Every file embeds the resolved run configuration and holds no timestamp,
so a rerun with the same seed writes the same bytes; wall-clock timings
therefore go to a separate sidecar file that is exempt from that
guarantee.

Codes file layout: a header line with the format version, method, code
length, row count and encoding, a config line, then one codeword per
line, either as a +/- string or hex-packed bits (bit 1 encodes +1, most
significant bit first, zero padding in the last byte).
"""

import json

import numpy as np

from .affinity import _row_blocks
from .errors import DataError, ParameterError

FORMAT_VERSION = 1


def _open_write(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc)) from exc


def _plain(obj):
    """json's hook for what it cannot write: a numpy array or scalar becomes
    its Python value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%r is not JSON serializable" % (obj,))


def write_json(path, payload):
    """Write a JSON document deterministically (sorted keys, trailing newline)."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=_plain)
    with _open_write(path) as handle:
        handle.write(text + "\n")


def write_document(path, config, **fields):
    """Write fields as a JSON document that also carries format_version and config."""
    write_json(path, dict(fields, format_version=FORMAT_VERSION, config=config))


def _codes_lines(codes, packed):
    """Each block of rows (affinity._row_blocks) as one string of code
    lines, built as one uint8 array of ASCII bytes with a newline per row."""
    count, k = codes.shape
    # k + 1 bytes per row in the signs encoding, its widest
    for rows in _row_blocks(count, k + 1):
        plus = codes[rows] > 0
        if packed:
            bits = np.packbits(plus, axis=1)
            text = bits.tobytes().hex().encode("ascii")
            chars = np.frombuffer(text, dtype=np.uint8)
            chars = chars.reshape(len(bits), 2 * bits.shape[1])
        else:
            chars = np.where(plus, ord("+"), ord("-"))
        block = np.full((chars.shape[0], chars.shape[1] + 1), ord("\n"), dtype=np.uint8)
        block[:, :-1] = chars
        yield block.tobytes().decode("ascii")


def write_codes(path, codes, method, config=None, packed=False):
    """Write a stack of +-1 codes with header and config lines."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ParameterError("codes must be 2-d, got shape %r" % (codes.shape,))
    if codes.size and not np.all(np.abs(codes) == 1):
        raise ParameterError("codes entries must be -1 or +1")
    count, k = codes.shape
    encoding = "hex" if packed else "signs"
    with _open_write(path) as handle:
        handle.write("# ssbc-codes format=%d method=%s k=%d count=%d encoding=%s\n"
                     % (FORMAT_VERSION, method, k, count, encoding))
        handle.write("# config %s\n" % json.dumps(config or {}, sort_keys=True,
                                                  default=_plain))
        for lines in _codes_lines(codes, packed):
            handle.write(lines)


def read_codes(path):
    """Read a codes file back into an int8 array plus its header metadata."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    if len(lines) < 2 or not lines[0].startswith("# ssbc-codes "):
        raise DataError("%s: not a codes file" % path)
    meta = {}
    for token in lines[0][len("# ssbc-codes "):].split():
        key, _, value = token.partition("=")
        meta[key] = value
    if not lines[1].startswith("# config "):
        raise DataError("%s: missing config line" % path)
    try:
        meta["config"] = json.loads(lines[1][len("# config "):])
        k = int(meta["k"])
        count = int(meta["count"])
        version = int(meta["format"])
        encoding = meta["encoding"]
    except (KeyError, ValueError) as exc:
        raise DataError("%s: malformed header: %s" % (path, exc)) from exc
    if version != FORMAT_VERSION:
        raise DataError("%s: unsupported format version %d" % (path, version))
    if k < 0 or count < 0:
        raise DataError("%s: negative k=%d or count=%d" % (path, k, count))
    body = lines[2:]
    if len(body) != count:
        raise DataError("%s: expected %d code lines, found %d"
                        % (path, count, len(body)))
    if encoding not in ("signs", "hex"):
        raise DataError("%s: unknown encoding %r" % (path, encoding))
    rows = np.empty((count, k), dtype=np.int8)
    for i, line in enumerate(body):
        if encoding == "signs":
            if len(line) != k or set(line) - {"+", "-"}:
                raise DataError("%s: bad code line %d" % (path, i + 3))
            rows[i] = [1 if ch == "+" else -1 for ch in line]
        else:
            try:
                raw = bytes.fromhex(line)
            except ValueError as exc:
                raise DataError("%s: bad hex line %d" % (path, i + 3)) from exc
            if len(raw) != (k + 7) // 8:
                raise DataError("%s: hex line %d has %d bytes, k=%d needs %d"
                                % (path, i + 3, len(raw), k, (k + 7) // 8))
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            if bits[k:].any():
                raise DataError("%s: hex line %d sets padding bits past k=%d"
                                % (path, i + 3, k))
            rows[i] = np.where(bits[:k] > 0, 1, -1)
    meta["k"] = k
    meta["count"] = count
    meta["format"] = version
    return rows, meta


def report_payload(reports, config):
    """JSON document carrying one or more EvalReports."""
    return {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "reports": [r.to_dict() for r in reports],
    }


CSV_HEADER = "method,k,row_type,radius,precision,recall,map,status"


def write_reports_csv(path, reports, config, failures=()):
    """Flat CSV: one summary row per report, one pr row per curve point.

    Failed sub-runs (method, k, message) are preserved as summary rows with
    empty metrics and a failure status.
    """

    def fmt(x):
        return repr(float(x))

    with _open_write(path) as handle:
        handle.write("# config %s\n" % json.dumps(config or {}, sort_keys=True,
                                                  default=_plain))
        handle.write(CSV_HEADER + "\n")
        for rep in reports:
            radius = rep.params.get("radius", "")
            handle.write("%s,%d,summary,%s,%s,%s,%s,ok\n"
                         % (rep.method, rep.k, radius, fmt(rep.precision),
                            fmt(rep.recall), fmt(rep.map)))
            for r, (prec, rec) in enumerate(rep.pr_curve):
                handle.write("%s,%d,pr,%d,%s,%s,,ok\n"
                             % (rep.method, rep.k, r, fmt(prec), fmt(rec)))
        for method, k, message in failures:
            handle.write("%s,%s,summary,,,,,failed:%s\n" % (method, k, message))
