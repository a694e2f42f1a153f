"""On-disk formats: codes files, JSON reports, flat CSV reports, metadata.

Every file embeds the resolved run configuration and a format version.
JSON is written with sorted keys and no timestamps so a rerun with the
same seed produces byte-identical bytes; wall-clock timings therefore go
to a separate sidecar file that is exempt from that guarantee.

Codes file layout: a header line with the method, code length and row
count, a config line, then one codeword per line, either as a +/- string
or hex-packed bits (bit 1 encodes +1, most significant bit first).
"""

import json

import numpy as np

from .errors import DataError, ParameterError

FORMAT_VERSION = 1


def _open_write(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc)) from exc


def to_builtin(obj):
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(obj, dict):
        return {str(key): to_builtin(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(val) for val in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def write_json(path, payload):
    """Write a JSON document deterministically (sorted keys, trailing newline)."""
    text = json.dumps(to_builtin(payload), sort_keys=True, indent=2)
    with _open_write(path) as handle:
        handle.write(text + "\n")


def _codes_lines(codes, packed):
    if packed:
        bits = (codes > 0).astype(np.uint8)
        for row in bits:
            yield np.packbits(row).tobytes().hex()
    else:
        for row in codes:
            yield "".join("+" if b > 0 else "-" for b in row)


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
        handle.write("# config %s\n" % json.dumps(to_builtin(config or {}),
                                                  sort_keys=True))
        for line in _codes_lines(codes, packed):
            handle.write(line + "\n")


def read_codes(path):
    """Read a codes file back into an int8 array plus its header metadata."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
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
    rows = np.empty((count, k), dtype=np.int8)
    for i, line in enumerate(body):
        if encoding == "signs":
            if len(line) != k or set(line) - {"+", "-"}:
                raise DataError("%s: bad code line %d" % (path, i + 3))
            rows[i] = [1 if ch == "+" else -1 for ch in line]
        elif encoding == "hex":
            try:
                raw = bytes.fromhex(line)
            except ValueError as exc:
                raise DataError("%s: bad hex line %d" % (path, i + 3)) from exc
            if len(raw) != (k + 7) // 8:
                raise DataError("%s: hex line %d has %d bytes, k=%d needs %d"
                                % (path, i + 3, len(raw), k, (k + 7) // 8))
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:k]
            rows[i] = np.where(bits > 0, 1, -1)
        else:
            raise DataError("%s: unknown encoding %r" % (path, encoding))
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
        handle.write("# config %s\n" % json.dumps(to_builtin(config or {}),
                                                  sort_keys=True))
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


def dataset_meta(dataset, config, seed=None):
    """Metadata document written alongside generated datasets."""
    return {
        "format_version": FORMAT_VERSION,
        "name": dataset.name,
        "n": dataset.n,
        "d": dataset.d,
        "provenance": dataset.provenance,
        "seed": seed,
        "config": config or {},
    }
