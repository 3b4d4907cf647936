"""Frozen job corpora for the fineselmer benchmark.

A job is (a-invariants, p, field).  Every job records the verdict the
pipeline must reach -- image class, bound, strength, route -- and the
sha256 of its compact JSON report (``render_json(..., compact=True)``).
The verdicts and digests were captured from the package as first
benchmarked and are frozen here as literals; they are the reference the
benchmark checks every output against, so a change that alters a
report byte shows up as a failed job.  The two 11a2 jobs of
ISOGENY_LINES overlap tests/golden/reports.ndjson, and selftest.py
checks that their digests agree with the golden bytes.

Curve data (a-invariants, conductors, isogeny classes, CM) is taken from
J. E. Cremona, "Algorithms for Modular Elliptic Curves", 2nd ed. (1997),
Table 1, and matches the LMFDB entries of the same Cremona labels.  The
image classes are what the pipeline certifies; the comment on each curve
says which Cremona isogeny or CM fact makes that class the right one.
"""

from __future__ import annotations

from dataclasses import dataclass

# label -> (a-invariants, why the curve is in the corpus)
CURVES = {
    # isogeny class 11a: 11a1 -5- 11a2, 11a1 -5- 11a3, so 11a1 has two
    # rational 5-isogenies (two stable lines) and 11a2, 11a3 one each
    "11a1": ((0, -1, 1, -10, -20), "two 5-isogenies (class 11a)"),
    "11a2": ((0, -1, 1, -7820, -263580), "one 5-isogeny (class 11a)"),
    "11a3": ((0, -1, 1, 0, 0), "one 5-isogeny (class 11a)"),
    # class 14a has a cyclic 9-isogeny chain with 14a1 in its middle, so
    # 14a1 has two rational 3-isogenies
    "14a1": ((1, 0, 1, 4, -6), "two 3-isogenies (class 14a)"),
    "20a1": ((0, 1, 0, 4, 4), "one 3-isogeny (class 20a)"),
    "26b1": ((1, -1, 1, -3, 3), "one 7-isogeny (class 26b)"),
    "38b1": ((1, 1, 1, 0, 1), "one 5-isogeny (class 38b)"),
    # CM curves: the image mod p lies in a Cartan normalizer, so it is
    # never surjective and the certificate hunt scans every prime <= 1000
    "27a1": ((0, 0, 1, 0, -7), "CM by Z[(1+sqrt-3)/2], j = 0"),
    "32a2": ((0, 0, 0, -1, 0), "CM by Z[i], j = 1728"),
    "36a1": ((0, 0, 0, 0, 1), "CM by Z[(1+sqrt-3)/2], j = 0"),
    "49a1": ((1, -1, 0, -2, -1), "CM by Z[(1+sqrt-7)/2], j = -3375"),
    # isogeny-free classes of prime conductor: generic images
    "37a1": ((0, 0, 1, -1, 0), "no isogenies; surjective mod every prime"),
    "43a1": ((0, 1, 1, 0, 0), "no isogenies (class 43a)"),
    "53a1": ((1, -1, 1, 0, 0), "no isogenies (class 53a)"),
    "61a1": ((1, 0, 0, -2, 1), "no isogenies (class 61a)"),
    "79a1": ((1, 1, 1, -2, 0), "no isogenies (class 79a)"),
    "83a1": ((1, 1, 1, 1, 0), "no isogenies (class 83a)"),
    "89a1": ((1, 1, 1, -1, 0), "no isogenies (class 89a)"),
    "389a1": ((0, 1, 1, -2, 0), "no isogenies (class 389a), rank 2"),
    "5077a1": ((0, 0, 1, -7, 6), "no isogenies (class 5077a), rank 3"),
    # semistable curves used only for bad reduction at p (blocked jobs)
    "15a1": ((1, 1, 1, -10, -10), "conductor 15: bad at 3 and 5"),
    "21a1": ((1, 0, 0, -4, -1), "conductor 21: bad at 3 and 7"),
    "33a1": ((1, 1, 0, -11, 0), "conductor 33: bad at 3 and 11"),
    "35a1": ((0, 1, 1, 9, 1), "conductor 35: bad at 5 and 7"),
    "39a1": ((1, 1, 0, -4, -5), "conductor 39: bad at 3 and 13"),
}


@dataclass(frozen=True)
class Job:
    label: str
    p: int
    field: str
    image: str            # ImageClassification.status, or "not-evaluated"
    bound: int | None
    strength: str
    route: str | None
    sha256: str           # of the compact JSON report bytes

    @property
    def curve(self) -> tuple[int, ...]:
        return CURVES[self.label][0]

    def as_dict(self) -> dict:
        """The NDJSON job object the CLI takes."""
        return {"curve": list(self.curve), "label": self.label,
                "p": self.p, "field": self.field}


_job = Job

# 37a1 at p = 11: about all of the job is factoring the degree-60 psi_11
# (Yun, then Cantor-Zassenhaus mod 3, Hensel, recombination); the
# certificate that ends the job takes about a millisecond.  p = 13 is
# left out: one job takes about 500 s, longer than any run.
SURJECTIVE_P11 = (
    _job("37a1", 11, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "97e1716cd7aece14a4474eccfde151db7b7293c8e9c0165260751579d6447410"),
)

# Curves with at least one stable line at p = 3, 5, 7, over both fields:
# the closure test, Velu and trace matching run on every job, and the
# Frobenius hunt never does.
ISOGENY_LINES = (
    _job("11a1", 5, "Q", "TwoStableSubgroups", 4, "unconditional", "local-only",
         "9ecb3b60e1c669a485dc501c52cd379c26b3581e9ea10a8cc9ac8136dc6888a9"),
    _job("11a1", 5, "Q(mu_p)", "TwoStableSubgroups", 10, "unconditional", "local-only",
         "f2e93ebb27fddba6376d0d90095daa7c0b0b9eccc9b1c25c81408d33c2b673a6"),
    _job("11a2", 5, "Q", "OneStableSubgroup", 2, "conditional", "with-global-dims",
         "501152d0a5edda98f52e71687d1284b46347d994758fe03ad73b8979228b98cb"),
    _job("11a2", 5, "Q(mu_p)", "OneStableSubgroup", 10, "conditional", "with-global-dims",
         "bcf815322cc3b0b394039c0318e7fa675255dca10ab0cbc17ebe5d46357254a7"),
    _job("11a3", 5, "Q", "OneStableSubgroup", 4, "conditional", "with-global-dims",
         "5517753042213cd6885619f817560c64b36817a99ccc41e14483101520c34607"),
    _job("11a3", 5, "Q(mu_p)", "OneStableSubgroup", 10, "conditional", "with-global-dims",
         "402f110c72e3501882b69b52e73548a11bc2a0fa8feec4f6052aa41d81cd635c"),
    _job("14a1", 3, "Q", "TwoStableSubgroups", 6, "unconditional", "local-only",
         "0b2375c2edb284de0289617ea9a443257ab00100fd8f80ba764e185cab571f7f"),
    _job("14a1", 3, "Q(mu_p)", "TwoStableSubgroups", 8, "unconditional", "local-only",
         "f5cbe6fb32410771ac7205f43f4b9e91bd899c6bc8135541a996c885d5bcbd14"),
    _job("20a1", 3, "Q", "OneStableSubgroup", 6, "conditional", "with-global-dims",
         "484b6f31804e92812364631b94d77e287b02b490d4dbb126809ea202c9714cbc"),
    _job("20a1", 3, "Q(mu_p)", "OneStableSubgroup", 4, "conditional", "with-global-dims",
         "8ca99e2b14cf85e7a01515997d801980979cea2050cc2d1eae4a856925f8007b"),
    _job("26b1", 7, "Q", "OneStableSubgroup", 6, "conditional", "with-global-dims",
         "313203982f9b562c69d595a40e4357007efc591646788fbccf0046ae402c1144"),
    _job("26b1", 7, "Q(mu_p)", "OneStableSubgroup", 12, "conditional", "with-global-dims",
         "3874b67637e00dfd5d569bbf261d8c9573224078d158f635bceed0ab024d3e6c"),
    _job("38b1", 5, "Q", "OneStableSubgroup", 6, "conditional", "with-global-dims",
         "19d686f5c0e734d5781d30fe5b5d186cc3aeb5a9a4cd833006f5ae008314a19a"),
    _job("38b1", 5, "Q(mu_p)", "OneStableSubgroup", 8, "conditional", "with-global-dims",
         "132b44bcc765d8adcf62f3b94d18c522c21e14e4c774c46bdc96315339bf4d57"),
)

# CM curves at p = 5, 7 over Q: psi_p splits into few small factors, no
# stable line exists, and the surjectivity hunt fails after scanning
# every good prime below 1000 with a point count each.  49a1 at 7 has
# bad reduction at p and is blocked before any of that; it is kept on
# purpose, as the cheap case of the same front end.
INCONCLUSIVE_CM = (
    _job("32a2", 5, "Q", "Inconclusive", 2, "conditional", "local-only",
         "b354909ce1805f352499dab2ea4a2580917686b9d192ee6429a62615b1a07f6c"),
    _job("32a2", 7, "Q", "Inconclusive", 2, "conditional", "local-only",
         "fbfcefcfb361eaab68ba05c917c7dd703b0467ef4c7541cd9a8d2a9d5af2318d"),
    _job("36a1", 5, "Q", "Inconclusive", 4, "conditional", "local-only",
         "897e28c905f0b165cf0098868cbbb3b35dc332ba5486ff86c5b9f2c914c71b47"),
    _job("36a1", 7, "Q", "Inconclusive", 4, "conditional", "local-only",
         "0b2623a9a747b218793b1adfff44f46990ce6d4ee6005d91643311b1df4a5970"),
    _job("27a1", 5, "Q", "Inconclusive", 2, "conditional", "local-only",
         "93f8bdf45121a447e4367b5335491f69460a54b845fe3b53d35d66f4e7a80522"),
    _job("27a1", 7, "Q", "Inconclusive", 2, "conditional", "local-only",
         "8f3f85d4236c4a48124af16e0d5aed000ef6197f7db7c75fd908891c83495eac"),
    _job("49a1", 5, "Q", "Inconclusive", 10, "conditional", "local-only",
         "21ddc55c2d462c05185abb841ef548857cf9fb38cff76d8f066351586ef7fbe4"),
    _job("49a1", 7, "Q", "not-evaluated", None, "blocked", None,
         "680254314f4c747196d307f44b13723c73f1e07ed34e51a2f58b5597eae033f7"),
)

# Cheap batch jobs, milliseconds each, so that parsing, rendering, pool
# dispatch and output ordering carry a visible share of a batch.
# Generic curves at p = 3 (no certificate exists for p = 3, so the
# image is inconclusive without a hunt) and p = 5 (certified surjective
# within a few primes), over both fields.
BATCH_GENERIC = (
    _job("37a1", 3, "Q", "Inconclusive", 0, "conditional", "local-only",
         "248d9a997f0c43f6d5b20013a8364504dbdcae7d0e5e97a5253b757dadba45c5"),
    _job("37a1", 3, "Q(mu_p)", "Inconclusive", 0, "conditional", "local-only",
         "460826f4b3c784857f71c2bdfbe3f8e92692c3b95db1ebca33defe7a26d55896"),
    _job("37a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "7efc292771fbe215a3ace1892debde66b1c81511d10849a6078d088e3aab8a4c"),
    _job("37a1", 5, "Q(mu_p)", "SurjectiveCertified", 2, "conditional", "local-only",
         "514e11967782b8dec72e1a628ab45184c1c336659a8bfb454e7756e5e461244f"),
    _job("43a1", 3, "Q", "Inconclusive", 0, "conditional", "local-only",
         "24c87e6d5c4c286aeeed689792d0df6c66ad4978b97c8f717b52ddf55fa3dbf0"),
    _job("43a1", 3, "Q(mu_p)", "Inconclusive", 2, "conditional", "local-only",
         "74c0ce150eb40077d81b5ec94bff33a9ee8bc8bae9c02b0997c62b66baf4e6d2"),
    _job("43a1", 5, "Q", "SurjectiveCertified", 10, "conditional", "local-only",
         "5e3eb0291f70409c2a71b69151a5def8eb2efe0b309f2cafb2aa5498527f85ff"),
    _job("43a1", 5, "Q(mu_p)", "SurjectiveCertified", 12, "conditional", "local-only",
         "c39704a0b05d68205eb49fa22a766c45ce3886fca041666826db27bcaa6fa439"),
    _job("53a1", 3, "Q", "Inconclusive", 18, "conditional", "local-only",
         "15e08e935107a56582a94c229a9157008f2e0bdda59f574d3d00cbb1e44b5dfa"),
    _job("53a1", 3, "Q(mu_p)", "Inconclusive", 18, "conditional", "local-only",
         "6ccb2760020efde290ea5517563c4fdfaa9e78df87270ac313dae40ecfc58f12"),
    _job("53a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "9082936496875adb688898bc435c3cb1134b82a89ec1f07132e8167f21822da5"),
    _job("53a1", 5, "Q(mu_p)", "SurjectiveCertified", 2, "conditional", "local-only",
         "54ba4c76b95475791496462c3739ac8ff09adc5c5169fcc34f26207a2355d36e"),
    _job("61a1", 3, "Q", "Inconclusive", 0, "conditional", "local-only",
         "418c53ae53d216053237879899191113fb6841828e3d3ee15feae3ecfc82c217"),
    _job("61a1", 3, "Q(mu_p)", "Inconclusive", 2, "conditional", "local-only",
         "f5ed439eb772787997d44555d8a7957273e216aa65df64491d432c089dcefc9d"),
    _job("61a1", 5, "Q", "SurjectiveCertified", 0, "conditional", "local-only",
         "d5e65c34ecc8bd1ddee53d19653677452d77a6431d74eda36e503754b65d0a28"),
    _job("61a1", 5, "Q(mu_p)", "SurjectiveCertified", 0, "conditional", "local-only",
         "4c36ae25c02f2a0e505b9e9e6ccec993287bb6c3768f8d91e29b2f5f3280244c"),
    _job("79a1", 3, "Q", "Inconclusive", 0, "conditional", "local-only",
         "70b47ec88405f78119d0dd8e2bb348fad26b4c078edb71fd2b83360990597e9b"),
    _job("79a1", 3, "Q(mu_p)", "Inconclusive", 0, "conditional", "local-only",
         "a8184487f07d11c26aa66b31df4ccac54d7a234b5b4e76605f81196f3bb607e4"),
    _job("79a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "efb29f77567dbcb3cf3f01f65ee5552175f4ca16fabebb275a13058783ca3efc"),
    _job("79a1", 5, "Q(mu_p)", "SurjectiveCertified", 4, "conditional", "local-only",
         "31d9a0b488cc37dd8e1bd96d9b51606eb361cda3f79275e032c1d511c3915061"),
    _job("83a1", 3, "Q", "Inconclusive", 2, "conditional", "local-only",
         "22da72d97b9a5b59037da33921d8c557a076ba11237ecc930fd6eafb9b68b945"),
    _job("83a1", 3, "Q(mu_p)", "Inconclusive", 2, "conditional", "local-only",
         "5f1a1f49c6683c5fdfbc09c01de884506b5dc3e8196bd0deb985e33d4ff33691"),
    _job("83a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "30af41c2301a145885d9268d4466797c803cf565ba240fb0fe6984fbf60542f7"),
    _job("83a1", 5, "Q(mu_p)", "SurjectiveCertified", 2, "conditional", "local-only",
         "c1c04b3110eb1e1899c43e27666263d783a43a88a375f2a13e6c8156f469769b"),
    _job("89a1", 3, "Q", "Inconclusive", 6, "conditional", "local-only",
         "08343a5cfed748243c7d1baf7a362e8481ddd9f84c9cf098bef3744ad9a3b66d"),
    _job("89a1", 3, "Q(mu_p)", "Inconclusive", 6, "conditional", "local-only",
         "1bd05259f362e086d88f246d91ee7529f656aa397c6148308b11a243ed33091c"),
    _job("89a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "67ff6f1f65ea3c4768f721ded85666289ae3880bcfd77cf8b85b342f59082701"),
    _job("89a1", 5, "Q(mu_p)", "SurjectiveCertified", 4, "conditional", "local-only",
         "82b0df30ce31e0c81a782ddbb2940555e9f1de540295d3fd8764d0a07b4955ac"),
    _job("389a1", 3, "Q", "Inconclusive", 2, "conditional", "local-only",
         "e466d9bf12b416c4a18ab525b590d36866e0f7bf21a1275d80d8673dc34e019c"),
    _job("389a1", 3, "Q(mu_p)", "Inconclusive", 4, "conditional", "local-only",
         "db67e6712bb9f716a4be722d5f1508c0e94e510948b64797dd0568adc28f8e85"),
    _job("389a1", 5, "Q", "SurjectiveCertified", 2, "conditional", "local-only",
         "4943b3776ba27f9e3ff26184663936db303a3c3c53400eb056d08ece643cd8f0"),
    _job("389a1", 5, "Q(mu_p)", "SurjectiveCertified", 4, "conditional", "local-only",
         "566c4d75907988a052972036b8b4031b0fd55b235227b94a14df3f2ddcae07c8"),
    _job("5077a1", 3, "Q", "Inconclusive", 0, "conditional", "local-only",
         "3d28087c0cfd5c6686bff03303c5d1ec485b35cfec112824db559a8de8d8379a"),
    _job("5077a1", 3, "Q(mu_p)", "Inconclusive", 0, "conditional", "local-only",
         "739bdfe23b9cf47c902751d8e5341e875fdef80e1dc85d58db677086fb97857e"),
    _job("5077a1", 5, "Q", "SurjectiveCertified", 4, "conditional", "local-only",
         "05b1f6ed1ed830c8ba1af8628686285f42d85311d3a88907131135be03fa684a"),
    _job("5077a1", 5, "Q(mu_p)", "SurjectiveCertified", 4, "conditional", "local-only",
         "56208208f06262038e435e4b97f56f9ccf378977d6dd1205d03bf72ca9f279e3"),
)

# Bad reduction at p (p divides the conductor): blocked before the image
# is classified, so only place sets and rendering run.
BATCH_BLOCKED = (
    _job("11a1", 11, "Q", "not-evaluated", None, "blocked", None,
         "d0248fc6893c5d0b20aa7b27e36f9c8cc44f22ba58cd27ae52da913baff72a92"),
    _job("15a1", 3, "Q(mu_p)", "not-evaluated", None, "blocked", None,
         "064975604a08915d40d78052af19820b81f1c77f895bf6dbacbbebd5e64bf53b"),
    _job("15a1", 5, "Q", "not-evaluated", None, "blocked", None,
         "15bd4eaa1ca89c206f7807fdecf3ab414aa77866d246b5e03ca3d35bc8a16e00"),
    _job("21a1", 7, "Q(mu_p)", "not-evaluated", None, "blocked", None,
         "67bf359eded6ffe3619c2de132784d4db4d0bb3991b637ad304641f6af5adaa5"),
    _job("14a1", 7, "Q", "not-evaluated", None, "blocked", None,
         "23564b581b27c6d3e1cb3fbc718512c769e5b8be2a53b4ea0a7ceaaeb5534bd5"),
    _job("26b1", 13, "Q(mu_p)", "not-evaluated", None, "blocked", None,
         "6d0d69494fff2ac15efa282152a94a2cfc3401c185f5d85882790d4b89c41418"),
    _job("33a1", 11, "Q", "not-evaluated", None, "blocked", None,
         "8b156e3a6afa65962ce4de77f32bcc05561ee14717c293b8b82d7aea12eb04ed"),
    _job("35a1", 5, "Q(mu_p)", "not-evaluated", None, "blocked", None,
         "d9f3111a34dbe0627707e4e81a052594e110f64a776d0f2f48ea16b09790b9f2"),
    _job("39a1", 13, "Q", "not-evaluated", None, "blocked", None,
         "32dafb02170bd948e73e9c75d734f7ec8054696b8dc3308462a9f448c49049c1"),
)

# Malformed batch lines and the error each must produce; the CLI
# prefixes the message with "line <n>: " and reports the line number.
BATCH_MALFORMED = (
    ('{"curve": [0, 0, 1, -1], "p": 5}',
     "curve needs exactly 5 a-invariants, got 4"),
    ('{"curve": [0, 0, 1, -1, 0], "p": 4}', "p must be an odd prime"),
    ("not json", "not valid JSON (Expecting value)"),
    ('{"curve": [0, 0, 1, -1, 0], "p": 5, "field": "R"}',
     "field must be one of ('Q', 'Q(mu_p)'), got 'R'"),
    ('{"p": 5}', "job needs at least curve and p"),
    ('{"curve": [0, 0, 0, 0, 0], "p": 5}',
     "singular model: discriminant is zero"),
    ('{"curve": [0, 0, 1, -1, 0], "p": 17}',
     "p is capped at 13 by the division-polynomial ladder"),
    ('{"curve": "0,0,1,x,0", "p": 5}',
     "a-invariant must be an integer, got 'x'"),
)

# The hostile line: an a-invariant above Python's 4300-digit limit for
# int parsing.  json.loads raises ValueError, which the batch front end
# does not catch, so the whole batch dies with a traceback and every
# other job's output is lost.  The probe runs it next to a few good
# lines and reports what was lost.
HOSTILE_DIGITS = 4400


def hostile_line() -> str:
    return '{"curve": [0, 0, 1, -1, 1%s], "p": 5}' % ("0" * HOSTILE_DIGITS)
