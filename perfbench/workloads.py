"""The benchmark's workloads and the outputs recorded for them.

Every workload is one closed-loop round trip a researcher would type:
``subspace-codes construct`` writes a code file, then ``subspace-codes
verify`` reads it back and checks size, distinctness and distance.  The
workloads differ in which layer does the work:

* ``exhaustive-855``: the binary exhaustive pair scan in ``verify``;
* ``parallel-141k``: the reduced (RREF) rounds in ``construction``, five
  rounds deep, plus the code file and the distinct count over 141k members;
* ``mrd-roundtrip``: MRD enumeration and rank filtering in ``gabidulin``,
  then writing and reading the code file;
* ``q3-sampled``: the q > 2 paths: list-of-ints members, general-field
  row reduction and the sampled scan.

Sizes are chosen so that one round trip takes one to three seconds on a
2-core x86 box, which lets a run repeat it several times and report
medians.

The recorded values below were taken at the commit that added this file, by
running each workload once with seed RECORD_SEED.  Construction and the
exhaustive scan are deterministic, so their records hold for every seed; the
sampled scan's pairs and witness depend on the seed and are checked at
RECORD_SEED only.
"""

from __future__ import annotations

from dataclasses import dataclass

RECORD_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    n: int
    k: int
    d: int
    s: int
    mode: str  # verify --mode
    samples: int  # verify --samples, used in sampled mode
    rounds: tuple  # member count of each round, in order
    sha256: str  # of the code file that construct writes
    pairs: int  # pairs_checked: every seed if exhaustive, else RECORD_SEED
    witness: tuple  # witness pair, under the same rule as pairs

    @property
    def members(self) -> int:
        return sum(self.rounds)

    @property
    def topup_requested(self) -> int:
        # the sampled scan adds ceil(samples / 10) cross-round pairs when
        # more than one round is populated
        if self.mode != "sampled" or sum(1 for c in self.rounds if c) < 2:
            return 0
        return -(-self.samples // 10)

    def construct_argv(self, path) -> list:
        return ["construct", "--q", str(self.q), "--n", str(self.n),
                "--k", str(self.k), "--d", str(self.d), "--s", str(self.s),
                "--out", str(path)]

    def verify_argv(self, path, seed: int) -> list:
        return ["verify", "--in", str(path), "--d", str(self.d),
                "--mode", self.mode, "--samples", str(self.samples),
                "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("exhaustive-855", 2, 3, 3, 2, 0, "exhaustive", 1,
             (512, 343),
             "c90b6323795e9a77929baec0efeb0a16b646387b9030b47ef6b3355e8d525195",
             365085, (0, 73)),
    Workload("parallel-141k", 2, 2, 2, 2, 3, "sampled", 20000,
             (65536, 36864, 20736, 11664, 6561),
             "a7680a51b68be6f1ee91f3d857356172f8a3d16c6f7edccc09d63fdb83375b0a",
             22000, (8409, 137826)),
    Workload("mrd-roundtrip", 2, 5, 4, 4, 0, "sampled", 20000,
             (32768, 1085),
             "a7f57f601a29d4e1a9d86b2527e456c4ae324290c701de652506065e96251409",
             22000, (26552, 27177)),
    Workload("q3-sampled", 3, 3, 3, 2, 0, "sampled", 10000,
             (19683, 8450),
             "0c52832b704a32bdb32d90277c06291883c7341e2ca4ba089fbcb4eebba77551",
             11000, (18415, 25799)),
)}
