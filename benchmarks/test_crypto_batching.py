"""Crypto microbenchmark: Ed25519 fast path and the signature cache.

Measures the layers of the pipeline's crypto fast path:

* **single verify, cold key** — first sight of a public key: decompress,
  then a multiplication over a one-row table made for the occasion,
  against a faithful *naive affine* baseline: affine double-and-add where
  every point addition pays two modular inversions (``pow(.., P-2, P)``),
  the textbook formulation the fast path exists to avoid;
* **single verify, warm key** — third sight of a key: the second sight
  built the key's window table (that build is *not* timed here), so
  ``h*A`` runs over it with 15 doublings instead of ~250, ``s*B`` over the
  base table with none, and ``R`` is checked by its encoding;
* **sign** — :func:`repro.crypto.ed25519.sign` with a recurring seed (the
  expanded key comes from the memo) against a reference signer that
  re-derives the public key on every call and compresses with the RFC's
  Fermat inversion — what ``sign`` cost before ISSUE 14;
* **native** — :mod:`repro.crypto.native` against the pure kernel on the
  same work: warm-key verification (both sides' per-key state built and
  untimed) and signing with a recurring seed.  The row names the library
  bound and measures each that binds here (libsodium, and the libcrypto
  ``hashlib`` links) as if it were the one bound;
* **signature cache** — the cluster-wide verdict cache under the
  replicated pipeline's access pattern: the proposer verifies a block's
  signatures once, then N-1 replicas check the same triples.
  Hits are counted from the cache's own stats: each replica pass performs
  ``len(triples)`` lookups, all of which must hit.

Under pytest (tier-1) only deterministic facts are gated — every route
returns the naive verifier's verdicts, each key gets exactly one table,
signatures equal the reference signer's bytes, the cache's hit and miss
counts, native signatures equal to the pure ones and native verdicts on
valid and tampered triples — and times are *reported*.  Run as a script
(what CI's ``hotpath-smoke`` does) the wall-clock ratios are asserted as
well: cold single verify >= 10x the naive affine baseline, warm >= 3x
cold, sign >= 2.5x the re-deriving reference, a replica's cache pass >=
5x cheaper than the proposer's verifying pass, and native Ed25519 is
bound and, through every library measured, verifies >= 2x and signs
>= 1.5x faster than the pure kernel; then
the report goes to ``BENCH_crypto.json`` at the repo root.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

from repro.crypto import ed25519, native
from repro.crypto.ed25519 import D, L, P
from repro.crypto.sigcache import SignatureCache, set_shared_cache

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_crypto.json")

N_KEYS = 32
N_FAST_VERIFIES = 24
N_NAIVE_VERIFIES = 2
N_SIGNS = 64
N_CACHE_REPLICAS = 4


# -- baseline: naive affine Ed25519 verification ------------------------------
#
# The textbook implementation this module's history started from: affine
# coordinates, so every group operation performs modular inversions, and
# plain double-and-add, so a ~253-bit scalar costs ~256 doublings plus
# ~128 additions — each carrying two ``pow(.., P-2, P)`` calls.


def _affine_add(p1, p2):
    """Affine Edwards addition (a = -1); two inversions per call."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    product = D * x1 * x2 * y1 * y2 % P
    x3 = (x1 * y2 + x2 * y1) * pow(1 + product, P - 2, P) % P
    y3 = (y1 * y2 + x1 * x2) * pow(1 - product, P - 2, P) % P
    return (x3, y3)


def _affine_scalar_mult(point, scalar):
    """Double-and-add on affine coordinates (None is the identity)."""
    result = None
    addend = point
    while scalar > 0:
        if scalar & 1:
            result = _affine_add(result, addend)
        addend = _affine_add(addend, addend)
        scalar >>= 1
    return result


def _affine_decompress(data):
    point = ed25519._point_decompress(data)
    x, y, z, _ = point
    z_inv = pow(z, P - 2, P)
    return (x * z_inv % P, y * z_inv % P)


_AFFINE_BASE = _affine_decompress(
    ed25519._point_compress(ed25519._BASE)
)


def naive_affine_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """RFC 8032 verification on the naive affine arithmetic."""
    if len(public_key) != 32 or len(signature) != 64:
        return False
    a_point = _affine_decompress(public_key)
    r_point = _affine_decompress(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    challenge = ed25519._sha512_int(signature[:32], public_key, message) % L
    left = _affine_scalar_mult(_AFFINE_BASE, s)
    right = _affine_add(r_point, _affine_scalar_mult(a_point, challenge))
    if left is None or right is None:
        return left is right
    return left == right


# -- baseline: a signer that re-derives the public key per call ----------------
#
# What ``sign`` did before the expanded-key memo: RFC 8032 section 5.1.6
# taken literally, with the public key derived from the seed every time and
# the RFC's Fermat inversion (``modp_inv``) in each point compression — two
# base multiplications and two 255-step exponentiations per signature where
# one multiplication and one Euclidean inversion are needed.


def _fermat_compress(point) -> bytes:
    x, y, z, _ = point
    z_inv = pow(z, P - 2, P)
    return int.to_bytes(y * z_inv % P | ((x * z_inv % P & 1) << 255), 32, "little")


def rederiving_sign(seed: bytes, message: bytes) -> bytes:
    seed_hash = hashlib.sha512(seed).digest()
    scalar = ed25519._clamp(seed_hash)
    public = _fermat_compress(ed25519._base_mult(scalar))
    r = ed25519._sha512_int(seed_hash[32:], message) % L
    r_point = _fermat_compress(ed25519._base_mult(r))
    challenge = ed25519._sha512_int(r_point, public, message) % L
    return r_point + int.to_bytes((r + challenge * scalar) % L, 32, "little")


# -- workload -----------------------------------------------------------------


def make_signatures(count: int):
    """Deterministic (public_key, message, signature) byte triples."""
    triples = []
    for number in range(count):
        seed = number.to_bytes(4, "big") * 8
        public = ed25519.public_key_from_seed(seed)
        message = f"crypto-bench-payload-{number}".encode() * 8
        triples.append((public, message, ed25519.sign(seed, message)))
    return triples


def timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


# -- sections -----------------------------------------------------------------


def forget_public_keys() -> None:
    """Make the next sight of every key a first sight again."""
    ed25519._PUBKEY_CACHE.clear()


def verify_all(triples) -> None:
    for public, message, signature in triples:
        assert ed25519.verify(public, message, signature)


@contextlib.contextmanager
def counting_key_tables():
    """Yield a list that grows by one for every multi-row (per-key) table
    ``ed25519._affine_table`` builds inside the block."""
    built = []
    original = ed25519._affine_table

    def counting(point, width, cols, rows):
        if rows > 1:
            built.append(point)
        return original(point, width, cols, rows)

    ed25519._affine_table = counting
    try:
        yield built
    finally:
        ed25519._affine_table = original


def measure_single_verify() -> dict[str, float]:
    triples = make_signatures(N_KEYS)
    tampered = [(public, message + b"!", signature) for public, message, signature in triples]
    # Sanity: the baseline is a real verifier, not a strawman.
    assert naive_affine_verify(*triples[0])
    assert not naive_affine_verify(*tampered[0])

    def run_naive() -> None:
        for public, message, signature in triples[:N_NAIVE_VERIFIES]:
            assert naive_affine_verify(public, message, signature)

    fast = triples[:N_FAST_VERIFIES]
    naive_s = timed(run_naive) / N_NAIVE_VERIFIES
    # Per-key state is more than the decompressed point: the first sight
    # of a key memoises the point and multiplies over a one-row table, the
    # second builds the key's own table, the third is the steady state of
    # a recurring signer.  Time the first and the third, never the second.
    # Best of three rounds each: both ratios below divide two ~10-40 ms
    # passes, and this host's speed moves by 20-30% between such windows.
    cold_s = warm_s = float("inf")
    with counting_key_tables() as built:
        for _ in range(3):
            forget_public_keys()
            cold_s = min(cold_s, timed(lambda: verify_all(fast)))
            # Route parity: a tampered message fails on the table-building
            # (second sight, untimed) and on the warm route alike.
            assert not any(ed25519.verify(*triple) for triple in tampered[: len(fast)])
            warm_s = min(warm_s, timed(lambda: verify_all(fast)))
            assert not any(ed25519.verify(*triple) for triple in tampered[: len(fast)])
    # One table per key per round, however often the key came back.
    assert len(built) == 3 * len(fast), len(built)
    assert ed25519.memo_stats()["public_key_tables"] == len(fast)
    cold_s /= len(fast)
    warm_s /= len(fast)
    return {
        "naive_affine_ms": round(naive_s * 1000, 3),
        "single_verify_cold_key_ms": round(cold_s * 1000, 3),
        "single_verify_warm_key_ms": round(warm_s * 1000, 3),
        "warm_verify_us": round(warm_s * 1e6, 1),
        "key_tables_built_per_key": len(built) // (3 * len(fast)),
        "cold_speedup_vs_naive": round(naive_s / cold_s, 2),
        "warm_speedup_vs_cold": round(cold_s / warm_s, 2),
    }


def measure_sign() -> dict[str, float]:
    seed = b"\x07" * 32
    messages = [f"crypto-bench-sign-{number}".encode() * 8 for number in range(N_SIGNS)]
    assert [rederiving_sign(seed, m) for m in messages] == [ed25519.sign(seed, m) for m in messages]
    # Best of five interleaved passes: each pass is ~10-25 ms, and this
    # host's speed moves by 20-30% between such windows.
    reference_s = sign_s = float("inf")
    for _ in range(5):
        reference_s = min(reference_s, timed(lambda: [rederiving_sign(seed, m) for m in messages]))
        sign_s = min(sign_s, timed(lambda: [ed25519.sign(seed, m) for m in messages]))
    reference_s /= N_SIGNS
    sign_s /= N_SIGNS
    return {
        "rederiving_reference_ms": round(reference_s * 1000, 3),
        "sign_ms": round(sign_s * 1000, 3),
        "sign_us": round(sign_s * 1e6, 1),
        "speedup": round(reference_s / sign_s, 2),
    }


def measure_native() -> dict:
    """Which library is bound, and each library that binds here measured
    through :mod:`repro.crypto.native` as if it were the one bound."""
    report = {"available": native.available(), "library": native.library()}
    bound = native._LIB
    try:
        for route in filter(None, map(native._self_tested, native._ROUTES)):
            native._LIB = route
            report[route.name] = measure_route()
    finally:
        native._LIB = bound
    return report


def measure_route() -> dict[str, float]:
    triples = make_signatures(N_FAST_VERIFIES)
    tampered = [(public, message + b"!", signature) for public, message, signature in triples]
    seed = b"\x07" * 32
    messages = [f"crypto-bench-sign-{number}".encode() * 8 for number in range(N_SIGNS)]
    assert [native.sign(seed, m) for m in messages] == [ed25519.sign(seed, m) for m in messages]
    assert all(native.accepts(*triple) for triple in triples)
    assert not any(native.accepts(*triple) or ed25519.verify(*triple) for triple in tampered)
    verify_all(triples)  # second sight: every key's table is built, untimed

    def native_verify_all() -> None:
        for triple in triples:
            assert native.accepts(*triple)

    # Best of five interleaved passes, as in measure_sign.
    pure_verify_s = native_verify_s = pure_sign_s = native_sign_s = float("inf")
    for _ in range(5):
        pure_verify_s = min(pure_verify_s, timed(lambda: verify_all(triples)))
        native_verify_s = min(native_verify_s, timed(native_verify_all))
        pure_sign_s = min(pure_sign_s, timed(lambda: [ed25519.sign(seed, m) for m in messages]))
        native_sign_s = min(native_sign_s, timed(lambda: [native.sign(seed, m) for m in messages]))
    return {
        "pure_warm_verify_us": round(pure_verify_s / len(triples) * 1e6, 1),
        "native_warm_verify_us": round(native_verify_s / len(triples) * 1e6, 1),
        "verify_speedup": round(pure_verify_s / native_verify_s, 2),
        "pure_sign_us": round(pure_sign_s / N_SIGNS * 1e6, 1),
        "native_sign_us": round(native_sign_s / N_SIGNS * 1e6, 1),
        "sign_speedup": round(pure_sign_s / native_sign_s, 2),
    }


def measure_signature_cache() -> dict[str, float]:
    raw_triples = make_signatures(N_KEYS)
    cache = SignatureCache(maxsize=4096)
    previous = set_shared_cache(cache)
    try:
        def proposer_pass() -> None:
            # Mirror keys.verify_signature: look up (all misses on a cold
            # cache), verify, write the verdict back.
            for public, message, signature in raw_triples:
                key = cache.key(public, message, signature)
                assert cache.get(key) is None
                verdict = ed25519.verify(public, message, signature)
                assert verdict
                cache.put(key, verdict)

        def replica_pass() -> None:
            for public, message, signature in raw_triples:
                verdict = cache.get(cache.key(public, message, signature))
                if verdict is None:  # pragma: no cover - cache misconfigured
                    verdict = ed25519.verify(public, message, signature)
                    cache.put(cache.key(public, message, signature), verdict)
                assert verdict

        proposer_s = timed(proposer_pass)
        replica_s = sum(timed(replica_pass) for _ in range(N_CACHE_REPLICAS - 1))
        replica_per_pass = replica_s / (N_CACHE_REPLICAS - 1)
        hits, misses = cache.hits, cache.misses
    finally:
        set_shared_cache(previous)
    # Replica passes are pure cache reads: every lookup after the proposer
    # pass hits, so exactly (replicas - 1) / replicas of all lookups do.
    assert (hits, misses) == ((N_CACHE_REPLICAS - 1) * N_KEYS, N_KEYS), (hits, misses)
    return {
        "signatures": N_KEYS,
        "replicas": N_CACHE_REPLICAS,
        "proposer_pass_ms": round(proposer_s * 1000, 3),
        "replica_pass_ms": round(replica_per_pass * 1000, 3),
        "cache_lookups": hits + misses,
        "cache_hits": hits,
        "hit_rate": round(hits / (hits + misses), 4),
        "replica_speedup": round(proposer_s / replica_per_pass, 2),
    }


def run_report() -> dict[str, dict]:
    """Measure every section (their deterministic gates run inside) and
    print the report; wall-clock figures are reported, not judged."""
    report = {
        "single_verify": measure_single_verify(),
        "sign": measure_sign(),
        "native": measure_native(),
        "signature_cache": measure_signature_cache(),
    }
    lines = ["crypto microbenchmark"]
    for section, numbers in report.items():
        lines.append(f"  {section}: {json.dumps(numbers)}")
    print("\n".join(lines))
    return report


def test_crypto_batching():
    run_report()


if __name__ == "__main__":
    report = run_report()
    # Wall-clock floors, asserted only here.  The one-row windowed path
    # clears 10x the naive affine baseline (ISSUE 4); a key's own table,
    # the base table and R-by-encoding add >= 3x on top and signing over
    # the base table is >= 2.5x the re-deriving reference (ISSUE 17);
    # cache hits are dramatically cheaper than verifying; native Ed25519
    # is bound and beats the pure kernel it fronts.
    # Gates first: a red run leaves the tracked file alone.
    single = report["single_verify"]
    assert single["cold_speedup_vs_naive"] >= 10.0, single
    assert single["warm_speedup_vs_cold"] >= 3.0, single
    assert report["sign"]["speedup"] >= 2.5, report["sign"]
    assert report["signature_cache"]["replica_speedup"] >= 5.0, report["signature_cache"]
    fast = report["native"]
    assert fast["available"], "no native Ed25519: this run would measure the fallback"
    for name in ("libsodium", "libcrypto"):
        if name in fast:
            assert fast[name]["verify_speedup"] >= 2.0 and fast[name]["sign_speedup"] >= 1.5, (name, fast)
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
