"""One general-observable op: library calls on non-diagonal observables.

    python3 perfbench/observable_op.py --seed S --dim D --samples K

Builds a random Hermitian observable with planted degeneracies, decomposes
it, samples it K times under each semantics, samples a lifted degenerate
local observable K times, samples a non-diagonal local basis K times under
each semantics with `partial_measure`, and builds a refinement. Every
reference value comes from the planted construction with plain numpy, never
from the package. Prints one strict-JSON report: the package's values, the
references, and the largest deviation seen per check.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

LOCAL_DIM = 4          # subsystem of the lifted degenerate observable
LOCAL_SPECTRUM = (0.0, 0.0, 1.0, 2.0)
BASIS_DIM = 8          # subsystem read out by partial_measure


def _unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian(u: np.ndarray, spectrum) -> np.ndarray:
    a = (u * np.asarray(spectrum)) @ u.conj().T
    return (a + a.conj().T) / 2


def _planted_groups(rng, d: int) -> list[int]:
    mults = []
    while sum(mults) < d:
        mults.append(int(min(rng.integers(1, 4), d - sum(mults))))
    return mults


def _fidelity_gap(ref: np.ndarray, got: np.ndarray) -> float:
    return abs(1.0 - abs(np.vdot(ref, got)) ** 2)


def run(seed: int, dim: int, samples: int) -> dict:
    import postulate_sim as ps
    from postulate_sim import measurement

    lueders, strict = ps.SemanticsMode.LUEDERS, ps.SemanticsMode.STRICT_VON_NEUMANN
    rng = np.random.default_rng([seed, dim])
    errors = dict.fromkeys(("eigenvalue", "born", "sample_probability", "post_state",
                            "lift", "partial_probability", "refinement"), 0.0)
    mismatches = 0

    def note(key, value):
        errors[key] = max(errors[key], float(value))

    # observable with planted degenerate eigenspaces; eigenvalue g/4 for group g
    mults = _planted_groups(rng, dim)
    levels = np.arange(len(mults)) / 4.0
    u = _unitary(rng, dim)
    obs = ps.Observable(_hermitian(u, np.repeat(levels, mults)), (dim,))
    dec = obs.decomposition
    if list(dec.multiplicities) == mults:
        note("eigenvalue", np.max(np.abs(dec.eigenvalues - levels)))
    else:
        mismatches += 1
    starts = np.concatenate([[0], np.cumsum(mults)])
    groups = [u[:, starts[g]:starts[g + 1]] for g in range(len(mults))]

    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    psi = ps.StateVector(amps, (dim,))
    ref_born = np.array([np.sum(np.abs(b.conj().T @ amps) ** 2) for b in groups])
    born = measurement.born_probabilities(obs, psi)
    note("born", np.max(np.abs(born - ref_born)))

    counts = {"lueders": 0, "von-neumann": 0, "lift": 0, "partial": 0}
    for mode in (lueders, strict):
        mrng = np.random.default_rng([seed, dim, 1 if mode is lueders else 2])
        for _ in range(samples):
            out = ps.measure(obs, psi, mode, mrng)
            g = int(np.argmin(np.abs(levels - out.eigenvalue)))
            note("eigenvalue", abs(levels[g] - out.eigenvalue))
            note("sample_probability", abs(out.probability - ref_born[g]))
            block = groups[g]
            if mode is lueders or mults[g] == 1:
                ref_post = block @ (block.conj().T @ amps) if mode is lueders else block[:, 0]
                ref_post = ref_post / np.linalg.norm(ref_post)
                if out.post_state is None:
                    mismatches += 1
                else:
                    note("post_state", _fidelity_gap(ref_post, out.post_state.amplitudes))
            mismatches += out.determined != (mode is lueders or mults[g] == 1)
            counts[mode.value] += 1

    # degenerate local observable lifted onto (LOCAL_DIM, rest)
    dims = (LOCAL_DIM, dim // LOCAL_DIM)
    v = _unitary(rng, LOCAL_DIM)
    local = _hermitian(v, LOCAL_SPECTRUM)
    lifted = ps.lift(ps.Observable(local, (LOCAL_DIM,)), 0, dims)
    ref_apply = (local @ amps.reshape(dims)).reshape(-1)
    note("lift", np.max(np.abs(lifted.matrix @ amps - ref_apply)))
    local_levels = sorted(set(LOCAL_SPECTRUM))
    comps = np.abs(v.conj().T @ amps.reshape(dims)) ** 2
    ref_lift = [sum(comps[i].sum() for i, ev in enumerate(LOCAL_SPECTRUM) if ev == level)
                for level in local_levels]
    psi_split = psi.reshaped(dims)
    lrng = np.random.default_rng([seed, dim, 3])
    for _ in range(samples):
        out = ps.measure(lifted, psi_split, strict, lrng)
        k = int(np.argmin(np.abs(np.array(local_levels) - out.eigenvalue)))
        note("eigenvalue", abs(local_levels[k] - out.eigenvalue))
        note("sample_probability", abs(out.probability - ref_lift[k]))
        mismatches += out.determined  # every lifted outcome is degenerate
        counts["lift"] += 1

    # nondegenerate, non-diagonal local basis on (BASIS_DIM, rest)
    dims = (BASIS_DIM, dim // BASIS_DIM)
    w = _unitary(rng, BASIS_DIM)
    basis_levels = np.arange(BASIS_DIM, dtype=float)
    basis_obs = ps.Observable(_hermitian(w, basis_levels), (BASIS_DIM,))
    psi_split = psi.reshaped(dims)
    ref_partial = np.sum(np.abs(w.conj().T @ amps.reshape(dims)) ** 2, axis=1)
    partial = measurement.partial_probabilities(basis_obs, 0, psi_split)
    note("partial_probability", np.max(np.abs(partial - ref_partial)))
    for mode in (lueders, strict):
        prng = np.random.default_rng([seed, dim, 4 if mode is lueders else 5])
        for _ in range(samples):
            out = ps.partial_measure(basis_obs, 0, psi_split, mode, prng)
            j = int(np.argmin(np.abs(basis_levels - out.eigenvalue)))
            note("eigenvalue", abs(basis_levels[j] - out.eigenvalue))
            note("partial_probability", abs(out.probability - ref_partial[j]))
            note("post_state", _fidelity_gap(w[:, j], out.subsystem_post_state.amplitudes))
            mismatches += out.determined != (mode is lueders)
            counts["partial"] += 1

    # refinement: C nondegenerate with f(C) = A, checked through numpy's eigh of C
    refinement = ps.build_refinement(obs)
    c_vals, c_vecs = np.linalg.eigh(refinement.refined.matrix)
    labels = np.rint(c_vals).astype(int)
    if sorted(labels.tolist()) != list(range(dim)) or set(refinement.value_map) != set(range(dim)):
        mismatches += 1
    else:
        f_c = (c_vecs * np.array([refinement.value_map[lab] for lab in labels])) @ c_vecs.conj().T
        note("refinement", np.max(np.abs(f_c - obs.matrix)))
        note("eigenvalue", np.max(np.abs(c_vals - labels)))

    return {
        "dim": dim,
        "multiplicities": list(dec.multiplicities),
        "planted_multiplicities": mults,
        "born_probabilities": [float(p) for p in born],
        "born_reference": [float(p) for p in ref_born],
        "max_errors": errors,
        "flag_mismatches": int(mismatches),
        "samples": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    args = parser.parse_args(argv)
    report = run(args.seed, args.dim, args.samples)
    sys.stdout.write(json.dumps(report, sort_keys=True, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
