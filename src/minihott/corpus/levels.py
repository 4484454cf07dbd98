"""Per-level theorem files.

Level 0: a nontrivial loop on the universe of small types, obtained from
the swap automorphism of the two-element type, refuting that the
universe is a set; then the sub-universe of sets with its basepoint and
the transferred nontrivial loop.

Level n+1: the sub-universe of truncated types one level up, its
basepoint (the previous level's loop total type), the lifted loop built
from the fixed-point cell and the pair/function commutation laws, and
the resulting higher nontriviality theorems.
"""

from __future__ import annotations

from .build import HottFile, atom


def tow(x: str, k: int) -> str:
    """k-fold trivial loop on x."""
    t = x
    for _ in range(k):
        t = f"refl {atom(t)}"
    return t


# ---------------------------------------------------------------------------
# Shared emitters
# ---------------------------------------------------------------------------

def _sub_universe(f: HottFile, n: int) -> None:
    """Sub-universe of `n+2`-truncated types in U{n} and its loop data."""
    i = n + 1
    t = n + 2
    U = f"U{n}"
    sub = f"subUniverse{n}"
    fam = f"fun A => isTrunc{n} {t} A"
    trq = f"transport U{n} ({fam}) (fst X) (fst Y) q (snd X)"
    fib_ty = f"Id (isTrunc{n} {t} (fst Y)) ({trq}) (snd Y)"
    split_ty = f"(q : Id U{n} (fst X) (fst Y)) * ({fib_ty})"

    f.d("def", f"pathTypeTrunc{n}",
        f"(A B : {U}) -> isTrunc {t} B -> isTrunc {t} (Id {U} A B)",
        f"fun A B hB => retractTrunc {t} (Id {U} A B) (eqv{n} A B)"
        f" (idtoeqv{n} A B) (pathFromEquivL{n} A B) (uaEta{n} A B)"
        f" (sigmaTrunc {t} (A -> B) (fun g => isEquiv{n} A B g)"
        f" (piTrunc {t} A (fun a => B) (fun a => hB))"
        f" (fun g => truncRaiseFrom1 {t - 1} (isEquiv{n} A B g)"
        f" (propIsEquiv{n} A B g)))",
        comment="Path types in the universe inherit the truncation level of\n"
        "their endpoints, via the equivalence type as a retract.",
        ref="universe-path-types-inherit-truncation")
    f.d("def", sub, f"U{i}", f"(A : {U}) * isTrunc{n} {t} A",
        ref="sub-universe-of-truncated-types")
    f.d("def", f"subUniverseTrunc{n}",
        f"isTrunc{i} {n + 3} {sub}",
        f"fun X Y => retractTrunc {t} (Id {sub} X Y)"
        f" ({split_ty})"
        f" (sigmaPathSplit {U} ({fam}) X Y)"
        f" (fun w => pairPath {U} ({fam}) (fst X) (fst Y) (fst w)"
        " (snd X) (snd Y) (snd w))"
        f" (splitThenPair {U} ({fam}) X Y)"
        f" (sigmaTrunc {t} (Id {U} (fst X) (fst Y))"
        f" (fun q => {fib_ty})"
        f" (pathTypeTrunc{n} (fst X) (fst Y) (snd Y))"
        f" (fun q => contrTrunc {t} ({fib_ty})"
        f" (isTruncIsProp {t} (fst Y) ({trq}) (snd Y))))",
        comment="Membership witnesses are propositional, so the sub-universe\n"
        "is one level more truncated than its members' path types.",
        ref="sub-universe-truncation-bound")
    f.d("def", f"universeLoops{n}",
        f"{sub} -> U{i}",
        f"fun X => fst (pOmIter{i} {i} ({sub}, X))",
        ref="iterated-loops-of-the-sub-universe")
    f.d("def", f"loopType{n}", f"U{i}",
        f"(X : {sub}) * universeLoops{n} X",
        ref="total-type-of-universe-loops")
    towers = " ".join(
        f"{atom(tow('X', k))} {atom(tow('X', k))}" for k in range(1, n + 1))
    f.d("def", f"universeLoopsAreSets{n}",
        f"(X : {sub}) -> isTrunc 2 (universeLoops{n} X)",
        f"fun X => subUniverseTrunc{n} X X" + (f" {towers}" if towers else ""),
        ref="universe-loops-form-a-set")
    f.d("def", f"loopTypeIsTrunc{n}",
        f"isTrunc {n + 3} loopType{n}",
        f"sigmaTrunc {n + 3} {sub} (fun X => universeLoops{n} X)"
        f" subUniverseTrunc{n}"
        f" (fun X => truncRaiseFrom2 {i} (universeLoops{n} X)"
        f" (universeLoopsAreSets{n} X))",
        ref="loop-total-type-truncation-bound")


def _step(f: HottFile, n: int) -> None:
    """Lifted loop at level n from the level n-1 data (n is 1 or 2)."""
    m = n - 1
    lt = f"loopType{m}"
    sub = f"subUniverse{m}"
    X_w = f"(subUniverse{m}, fst w)"
    P_w = f"(fun Y => universeLoops{m} Y, snd w)"

    if n == 1:
        cell_body = "fun w => transportLoopFixed subUniverse0 (fst w) (snd w)"
        cell_comment = (
            "A loop is fixed by transport along itself in the loop family:\n"
            "self-conjugation cancels.")
    else:
        e1 = (f"transport (fst (pOm{n} {X_w})) (fst (pOmFam{n} {X_w} {P_w}))"
              f" (snd (pOm{n} {X_w})) (snd (pOm{n} {X_w})) (snd w)"
              f" (snd (pOmFam{n} {X_w} {P_w}))")
        cell_body = (f"fun w => fst (universeLoopsAreSets{m} (fst w)"
                     f" (snd w) (snd w) ({e1}) (refl (snd w)))")
        cell_comment = (
            "The doubly looped family is a path type between parallel paths\n"
            "in a set of loops, hence contractible; its center provides the\n"
            "cell.")
    f.d("def", f"loopCell{n}",
        f"(w : {lt}) -> fst (pOmFamIter{n} {n} {X_w} {P_w}) (snd w)",
        cell_body,
        comment=cell_comment,
        ref="diagonal-family-cell")

    om_c = f"fst (pOmIter{n} {n} ({lt}, w))"
    sig_c = (f"fst (pSigma{n} (pOmIter{n} {n} {X_w})"
             f" (pOmFamIter{n} {n} {X_w} {P_w}))")
    s_fw = (f"pathAp pT{n} U{n} (fun W => fst W)"
            f" (pOmIter{n} {n} (pSigma{n} {X_w} {P_w}))"
            f" (pSigma{n} (pOmIter{n} {n} {X_w}) (pOmFamIter{n} {n} {X_w} {P_w}))"
            f" (omSigmaIterEq{n} {n} {X_w} {P_w})")
    f.d("def", f"loopLift{n}",
        f"(w : {lt}) -> {om_c}",
        f"fun w => transport U{n} (fun T => T) ({sig_c}) ({om_c})"
        f" (pathInv U{n} ({om_c}) ({sig_c}) ({s_fw}))"
        f" (snd w, loopCell{n} w)",
        comment="The lifted loop: pair the loop's own second component with\n"
        "its fixed-point cell, then carry it across the carrier path of\n"
        "the iterated pair-commutation law.",
        ref="loop-lift")

    pi_c = f"(a : {lt}) -> fst (pOmIter{n + 1} {n} ({lt}, a))"
    om_big = f"fst (pOmIter{n + 1} {n + 1} (U{n}, {lt}))"
    lg_f = (f"pathAp pT{n + 1} U{n + 1} (fun W => fst W)"
            f" (pOmIter{n + 1} {n + 1} (U{n}, {lt}))"
            f" (pPi{n + 1} {lt} (fun a => pOmIter{n + 1} {n} ({lt}, a)))"
            f" (localGlobal{n} {m} {lt})")
    f.d("def", f"universeLoop{n}",
        om_big,
        f"transport U{n + 1} (fun T => T) ({pi_c}) ({om_big})"
        f" (pathInv U{n + 1} ({om_big}) ({pi_c}) ({lg_f}))"
        f" (fun w => loopLift{n} w)",
        comment="The nontrivial higher loop on the universe: the family of\n"
        "lifted loops, carried backwards across the local-global carrier\n"
        "path.",
        ref="higher-universe-loop")

    xi = f"fun w => loopLift{n} w"
    refl_fun = f"fun a => {tow('a', n)}"
    tower_base = tow(lt, n + 1)

    def tr_lg(z: str) -> str:
        return (f"transport U{n + 1} (fun T => T) ({om_big}) ({pi_c})"
                f" ({lg_f}) {atom(z)}")

    full = (f"pathComp ({pi_c}) ({xi}) ({tr_lg(f'universeLoop{n}')})"
            f" ({refl_fun})"
            f" (pathInv ({pi_c}) ({tr_lg(f'universeLoop{n}')}) ({xi})"
            f" (transportBackForth U{n + 1} (fun T => T) ({om_big}) ({pi_c})"
            f" ({lg_f}) ({xi})))"
            f" (pathComp ({pi_c}) ({tr_lg(f'universeLoop{n}')})"
            f" ({tr_lg(tower_base)}) ({refl_fun})"
            f" (pathAp ({om_big}) ({pi_c}) (fun z => {tr_lg('z')})"
            f" universeLoop{n} ({tower_base}) d)"
            f" (basepointTransfer{n + 1} (pOmIter{n + 1} {n + 1} (U{n}, {lt}))"
            f" (pPi{n + 1} {lt} (fun a => pOmIter{n + 1} {n} ({lt}, a)))"
            f" (localGlobal{n} {m} {lt})))")

    w0 = f"(basePoint{m}, subLoop{m})"
    ev = (f"happly {lt} (fun a => fst (pOmIter{n + 1} {n} ({lt}, a)))"
          f" ({xi}) ({refl_fun}) ({full}) {w0}")

    x0 = f"(subUniverse{m}, basePoint{m})"
    p0 = f"(fun Y => universeLoops{m} Y, subLoop{m})"
    s_f0 = (f"pathAp pT{n} U{n} (fun W => fst W)"
            f" (pOmIter{n} {n} (pSigma{n} {x0} {p0}))"
            f" (pSigma{n} (pOmIter{n} {n} {x0}) (pOmFamIter{n} {n} {x0} {p0}))"
            f" (omSigmaIterEq{n} {n} {x0} {p0})")
    om_c0 = f"fst (pOmIter{n} {n} ({lt}, {w0}))"
    sig_c0 = (f"fst (pSigma{n} (pOmIter{n} {n} {x0})"
              f" (pOmFamIter{n} {n} {x0} {p0}))")
    pair0 = f"(subLoop{m}, loopCell{n} {w0})"
    sig_bp = f"({tow(f'basePoint{m}', n)}, {tow(f'subLoop{m}', n)})"
    ll0 = f"loopLift{n} {w0}"
    tower_w0 = tow(w0, n)

    def tr_s(z: str) -> str:
        return (f"transport U{n} (fun T => T) ({om_c0}) ({sig_c0})"
                f" ({s_f0}) {atom(z)}")

    total_sig = (f"pathComp ({sig_c0}) {pair0} ({tr_s(ll0)}) {sig_bp}"
                 f" (pathInv ({sig_c0}) ({tr_s(ll0)}) {pair0}"
                 f" (transportBackForth U{n} (fun T => T) ({om_c0})"
                 f" ({sig_c0}) ({s_f0}) {pair0}))"
                 f" (pathComp ({sig_c0}) ({tr_s(ll0)}) ({tr_s(tower_w0)})"
                 f" {sig_bp}"
                 f" (pathAp ({om_c0}) ({sig_c0}) (fun z => {tr_s('z')})"
                 f" ({ll0}) ({tower_w0}) ({ev}))"
                 f" (basepointTransfer{n} (pOmIter{n} {n} (pSigma{n} {x0} {p0}))"
                 f" (pSigma{n} (pOmIter{n} {n} {x0})"
                 f" (pOmFamIter{n} {n} {x0} {p0}))"
                 f" (omSigmaIterEq{n} {n} {x0} {p0})))")
    fin = (f"pathAp ({sig_c0}) (fst (pOmIter{n} {n} {x0})) (fun z => fst z)"
           f" {pair0} {sig_bp} ({total_sig})")

    f.d("def", f"universeLoopNontrivial{n}",
        f"Id ({om_big}) universeLoop{n} ({tower_base}) -> Empty",
        f"fun d => subLoopNontrivial{m} ({fin})",
        comment="If the lifted loop were trivial, evaluating the function-side\n"
        "path at the previous level's loop point and pushing it back\n"
        "through the pair commutation law would trivialize the previous\n"
        "level's sub-universe loop.",
        ref="higher-loop-nontriviality")


def _forget(f: HottFile, n: int) -> None:
    """Basepoint, forgetting path, and transferred loop for level n."""
    i = n + 1
    t = n + 2
    sub = f"subUniverse{n}"
    bp = f"basePoint{n}"
    fam = f"fun A => isTrunc{n} {t} A"
    if n == 0:
        base_pair = "(U0, Two)"
        base_wit = "twoSet"
        big_loop = "swapPath"
        nontriv = "swapPathNontrivial"
        tower_base = tow("Two", 1)
        prop_arg = f"isTruncIsProp {t} A"
        f.d("def", bp, sub, "(Two, twoSet)",
            ref="sub-universe-basepoint")
    else:
        base_pair = f"(U{n}, loopType{n - 1})"
        base_wit = f"loopTypeIsTrunc{n - 1}"
        big_loop = f"universeLoop{n}"
        nontriv = f"universeLoopNontrivial{n}"
        tower_base = tow(f"loopType{n - 1}", n + 1)
        prop_arg = f"truncRaiseFrom1 {n} (isTrunc {t} A) (isTruncIsProp {t} A)"
        f.d("def", bp, sub,
            f"(loopType{n - 1}, loopTypeIsTrunc{n - 1})",
            ref="sub-universe-basepoint")

    ul_bp = f"universeLoops{n} {bp}"
    omega = f"fst (pOmIter{i} {i} {base_pair})"

    f.d("def", f"forgetPath{n}",
        f"Id pT{i} (pOmIter{i} {i} ({sub}, {bp})) (pOmIter{i} {i} {base_pair})",
        f"forgetLoops{i} {i} {base_pair} (({fam}), {base_wit})"
        f" (fun A => {prop_arg})",
        comment="Looping enough times lets the propositional membership\n"
        "witnesses be forgotten, identifying loops of the sub-universe\n"
        "with loops of the full universe.",
        ref="forgetting-membership-after-looping")
    f.d("def", f"forgetCarrier{n}",
        f"Id U{i} ({ul_bp}) ({omega})",
        f"pathAp pT{i} U{i} (fun W => fst W)"
        f" (pOmIter{i} {i} ({sub}, {bp})) (pOmIter{i} {i} {base_pair})"
        f" forgetPath{n}",
        ref="forgetting-membership-after-looping")
    f.d("def", f"subLoop{n}",
        f"universeLoops{n} {bp}",
        f"transport U{i} (fun T => T) ({omega}) ({ul_bp})"
        f" (pathInv U{i} ({ul_bp}) ({omega}) forgetCarrier{n}) {big_loop}",
        comment="The universe loop, pulled back into the sub-universe.",
        ref="transferred-sub-universe-loop")

    def tr_c(z: str) -> str:
        return (f"transport U{i} (fun T => T) ({ul_bp}) ({omega})"
                f" forgetCarrier{n} {atom(z)}")

    tower_bp = tow(bp, n + 1)
    f.d("def", f"subLoopNontrivial{n}",
        f"Id ({ul_bp}) subLoop{n} ({tower_bp}) -> Empty",
        f"fun d => {nontriv} (pathComp ({omega}) {atom(big_loop)}"
        f" ({tr_c(f'subLoop{n}')}) ({tower_base})"
        f" (pathInv ({omega}) ({tr_c(f'subLoop{n}')}) {atom(big_loop)}"
        f" (transportBackForth U{i} (fun T => T) ({ul_bp}) ({omega})"
        f" forgetCarrier{n} {atom(big_loop)}))"
        f" (pathComp ({omega}) ({tr_c(f'subLoop{n}')}) ({tr_c(tower_bp)})"
        f" ({tower_base})"
        f" (pathAp ({ul_bp}) ({omega}) (fun z => {tr_c('z')})"
        f" subLoop{n} ({tower_bp}) d)"
        f" (basepointTransfer{i} (pOmIter{i} {i} ({sub}, {bp}))"
        f" (pOmIter{i} {i} {base_pair}) forgetPath{n})))",
        comment="Trivializing the transferred loop would trivialize the\n"
        "original universe loop, carried forward along the forgetting\n"
        "path.",
        ref="transferred-loop-nontriviality")

    f.d("def", f"subUniverseNotTrunc{n}",
        f"isTrunc{i} {t} {sub} -> Empty",
        f"fun h => subLoopNontrivial{n} (fst (h {_loop_args(bp, f'subLoop{n}', n)}))",
        ref="sub-universe-is-not-truncated")
    f.d("def", f"loopTypeNotTrunc{n}",
        f"isTrunc {t} loopType{n} -> Empty",
        f"fun h => subUniverseNotTrunc{n} (retractTrunc {t} {sub}"
        f" loopType{n} (fun X => (X, {tow('X', n + 1)})) (fun w => fst w)"
        " (fun X => refl X) h)",
        comment="The sub-universe is a retract of the loop total type via the\n"
        "trivial-loop section.",
        ref="loop-total-type-is-not-truncated")


def _loop_args(x: str, loop: str, n: int) -> str:
    """`isTrunc`'s arguments: the k-fold trivial loop on `x` twice for each
    k <= n, then `loop` against the (n+1)-fold one."""
    return " ".join([*(atom(tow(x, k)) for k in range(n + 1) for _ in range(2)), loop, atom(tow(x, n + 1))])


def _universe_not_trunc(f: HottFile, n: int, name: str, ref: str, comment: str = "") -> None:
    """U{n} is not truncated: its universe loop at the previous loop total type."""
    f.d("def", name, f"isTrunc{n + 1} {n + 2} U{n} -> Empty",
        f"fun h => universeLoopNontrivial{n}"
        f" (fst (h {_loop_args(f'loopType{n - 1}', f'universeLoop{n}', n)}))",
        comment=comment, ref=ref)


def _goals(f: HottFile, n: int) -> None:
    """The level's sub-universe and loop-total-type truncation goals."""
    word, t = ("One", "Two")[n - 1], n + 2
    f.d("goal", f"subUniverse{word}NotTruncCheck", f"isTrunc{n + 1} {t} subUniverse{n} -> Empty",
        f"subUniverseNotTrunc{n}", ref="sub-universe-is-not-truncated")
    f.d("goal", f"loopType{word}TruncCheck", f"isTrunc {t + 1} loopType{n}",
        f"loopTypeIsTrunc{n}", ref="loop-total-type-truncation-bound")
    f.d("goal", f"loopType{word}NotTruncCheck", f"isTrunc {t} loopType{n} -> Empty",
        f"loopTypeNotTrunc{n}", ref="loop-total-type-is-not-truncated")


# ---------------------------------------------------------------------------
# Level 0
# ---------------------------------------------------------------------------

def swap_loop() -> HottFile:
    f = HottFile(
        "levels/level0/20-swap-loop.hott",
        pragmas=["requires-ua"],
        header="A nontrivial loop on the universe of small types: the path\n"
        "obtained from the swap automorphism of the two-element type is\n"
        "distinct from reflexivity, because converting both back to\n"
        "equivalences would make swap the identity.",
    )
    f.d("def", "loopFamilyBase", "U0", "Two",
        comment="The loop construction starts from the two-element type.",
        ref="loop-family-base-stage")
    f.d("def", "swapPath", "Id U0 Two Two",
        "equivToPath0 Two Two swapEqv",
        ref="swap-induced-universe-loop")
    e1 = ("pathComp (eqv0 Two Two) swapEqv (idtoeqv0 Two Two swapPath)"
          " (idEqv0 Two)"
          " (pathInv (eqv0 Two Two) (idtoeqv0 Two Two swapPath) swapEqv"
          " (uaEpsilon0 Two Two swapEqv))"
          " (pathAp (Id U0 Two Two) (eqv0 Two Two)"
          " (fun z => idtoeqv0 Two Two z) swapPath (refl Two) d)")
    f.d("def", "swapPathNontrivial",
        "Id (Id U0 Two Two) swapPath (refl Two) -> Empty",
        f"fun d => twoDistinct (pathAp (eqv0 Two Two) Two"
        f" (fun e => fst e zero2) swapEqv (idEqv0 Two) ({e1}))",
        comment="If the swap path were reflexivity, the swap equivalence would\n"
        "equal the identity equivalence, so applying both to the first\n"
        "element would identify the two distinct elements.",
        ref="swap-loop-nontriviality")
    return f


def universe0_not_set() -> HottFile:
    f = HottFile(
        "levels/level0/21-universe0-not-set.hott",
        pragmas=["requires-ua"],
        header="The universe of small types is not a set: it carries the\n"
        "nontrivial swap loop.",
    )
    f.d("def", "universeZeroNotSet",
        "isTrunc1 2 U0 -> Empty",
        "fun h => swapPathNontrivial (fst (h Two Two swapPath (refl Two)))",
        ref="universe-zero-is-not-a-set")
    f.d("goal", "universeZeroNotSetCheck",
        "isTrunc1 2 U0 -> Empty",
        "universeZeroNotSet",
        ref="universe-zero-is-not-a-set")
    return f


def subuniverse0() -> HottFile:
    f = HottFile(
        "levels/level0/22-subuniverse0.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="The sub-universe of sets: truncation bound, basepoint at the\n"
        "two-element type, and the swap loop transferred inside, refuting\n"
        "that the sub-universe of sets is a set.",
    )
    _sub_universe(f, 0)
    _forget(f, 0)
    return f


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------

def commuting_loops() -> HottFile:
    f = HottFile(
        "levels/level1/30-commuting-loops.hott",
        pragmas=["requires-ua", "requires-eta-sigma"],
        header="The type of types-with-a-loop, and two choices of a commuting\n"
        "companion for every loop: the trivial companion and the loop\n"
        "itself.  A commuting companion yields a self-path of the pair,\n"
        "via the conjugation rewrite of transported loops.",
    )
    L = "loopsInUniverse0"
    f.d("def", L, "U1", "(X : U0) * Id U0 X X",
        ref="types-with-a-distinguished-loop")
    f.d("def", "commuteChoice", "U1",
        "(X : U0) -> (p : Id U0 X X) -> ((q : Id U0 X X)"
        " * Id (Id U0 X X) (pathComp U0 X X X p q) (pathComp U0 X X X q p))",
        comment="For every loop, a companion loop together with a proof that\n"
        "the two commute.",
        ref="commuting-companion-choice")
    f.d("def", "reflCommutes",
        "(X : U0) (p : Id U0 X X) -> Id (Id U0 X X)"
        " (pathComp U0 X X X p (refl X)) (pathComp U0 X X X (refl X) p)",
        "fun X p => compIdRight U0 X X p",
        comment="Composing with reflexivity on the left is definitional, so\n"
        "the right unit law alone proves the commutation.",
        ref="reflexivity-commutes-with-everything")
    f.d("def", "reflCommuter", "commuteChoice",
        "fun X p => (refl X, reflCommutes X p)",
        ref="trivial-commuting-companion")
    f.d("def", "selfCommuter", "commuteChoice",
        "fun X p => (p, refl (pathComp U0 X X X p p))",
        comment="Every loop commutes with itself on the nose.",
        ref="self-commuting-companion")
    iq = "pathInv U0 X X q"
    cpq = "pathComp U0 X X X p q"
    cqp = "pathComp U0 X X X q p"
    e1 = f"pathComp U0 X X X ({iq}) ({cpq})"
    e2 = f"pathComp U0 X X X ({iq}) ({cqp})"
    e3 = f"pathComp U0 X X X (pathComp U0 X X X ({iq}) q) p"
    f.d("def", "commuteToFixed",
        "(X : U0) (p q : Id U0 X X) -> Id (Id U0 X X)"
        " (pathComp U0 X X X p q) (pathComp U0 X X X q p)"
        " -> Id (Id U0 X X) (transport U0 (fun Y => Id U0 Y Y) X X q p) p",
        "fun X p q cc => pathComp (Id U0 X X)"
        f" (transport U0 (fun Y => Id U0 Y Y) X X q p) ({e1}) p"
        " (transportLoop U0 X X q p)"
        f" (pathComp (Id U0 X X) ({e1}) ({e2}) p"
        " (pathAp (Id U0 X X) (Id U0 X X)"
        f" (fun z => pathComp U0 X X X ({iq}) z) ({cpq}) ({cqp}) cc)"
        f" (pathComp (Id U0 X X) ({e2}) ({e3}) p"
        f" (pathInv (Id U0 X X) ({e3}) ({e2})"
        f" (compAssoc U0 X X X X ({iq}) q p))"
        " (pathAp (Id U0 X X) (Id U0 X X) (fun z => pathComp U0 X X X z p)"
        f" (pathComp U0 X X X ({iq}) q) (refl X) (compInvLeft U0 X X q))))",
        comment="Transporting a loop along a commuting companion fixes it:\n"
        "the conjugation rewrite followed by cancellation.",
        ref="commuting-transport-is-fixed")
    f.d("def", "loopSelfPath",
        "(X : U0) (p : Id U0 X X) -> ((q : Id U0 X X)"
        " * Id (Id U0 X X) (pathComp U0 X X X p q) (pathComp U0 X X X q p))"
        f" -> Id {L} (X, p) (X, p)",
        "fun X p c => pairPath U0 (fun Y => Id U0 Y Y) X X (fst c) p p"
        " (commuteToFixed X p (fst c) (snd c))",
        ref="self-path-from-commuting-companion")
    f.d("def", "reflCommuterPaths",
        f"(w : {L}) -> Id {L} w w",
        "fun w => loopSelfPath (fst w) (snd w) (reflCommuter (fst w) (snd w))",
        ref="self-paths-from-the-trivial-companion")
    f.d("def", "selfCommuterPaths",
        f"(w : {L}) -> Id {L} w w",
        "fun w => loopSelfPath (fst w) (snd w) (selfCommuter (fst w) (snd w))",
        ref="self-paths-from-the-self-companion")
    f.d("def", "swapConjugation",
        "Id (Id U0 Two Two)"
        " (transport U0 (fun Y => Id U0 Y Y) Two Two swapPath swapPath)"
        " (pathComp U0 Two Two Two (pathInv U0 Two Two swapPath)"
        " (pathComp U0 Two Two Two swapPath swapPath))",
        "transportLoop U0 Two Two swapPath swapPath",
        comment="The conjugation rewrite, instantiated at the swap loop.",
        ref="swap-transport-conjugation-instance")
    return f


def universe1_not_groupoid() -> HottFile:
    f = HottFile(
        "levels/level1/31-universe1-not-groupoid.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="The next universe is not a one-type: if it were, the two\n"
        "commuting-companion choices would agree as self-path families,\n"
        "forcing the swap loop to be reflexivity.",
    )
    L = "loopsInUniverse0"
    eqv_ll = f"eqv1 {L} {L}"
    f.d("def", "universeOneLoopsEqvTrunc",
        f"isTrunc2 3 U1 -> isTrunc 2 ({eqv_ll})",
        f"fun h => retractTrunc 2 ({eqv_ll}) (Id U1 {L} {L})"
        f" (equivToPath1 {L} {L}) (idtoeqv1 {L} {L}) (uaEpsilon1 {L} {L})"
        f" (h {L} {L})",
        comment="Self-equivalences of the loop-pair type form a set, as a\n"
        "retract of the universe's path type.",
        ref="equivalence-type-inherits-universe-truncation")
    pair_p = (f"pairPath ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
              " (fun x => x) (fun x => x) p"
              f" (snd (idEqv1 {L})) (snd (idEqv1 {L}))"
              f" (allPathsIsEquiv1 {L} {L} (fun x => x)"
              f" (transport ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
              f" (fun x => x) (fun x => x) p (snd (idEqv1 {L})))"
              f" (snd (idEqv1 {L})))")
    hom = (f"fun p => pathComp (Id ({L} -> {L}) (fun x => x) (fun x => x))"
           f" (pathAp ({eqv_ll}) ({L} -> {L}) (fun z => fst z)"
           f" (idEqv1 {L}) (idEqv1 {L}) ({pair_p}))"
           f" (fst (sigmaPathSplit ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
           f" (idEqv1 {L}) (idEqv1 {L}) ({pair_p})))"
           " p"
           f" (apFstIsSplitFst ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
           f" (idEqv1 {L}) (idEqv1 {L}) ({pair_p}))"
           f" (splitFstPair ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
           " (fun x => x) (fun x => x) p"
           f" (snd (idEqv1 {L})) (snd (idEqv1 {L}))"
           f" (allPathsIsEquiv1 {L} {L} (fun x => x)"
           f" (transport ({L} -> {L}) (fun g => isEquiv1 {L} {L} g)"
           f" (fun x => x) (fun x => x) p (snd (idEqv1 {L})))"
           f" (snd (idEqv1 {L}))))")
    f.d("def", "identityPathsTrunc",
        f"isTrunc2 3 U1 -> isTrunc 1 (Id ({L} -> {L}) (fun x => x)"
        " (fun x => x))",
        f"fun h => retractTrunc 1 (Id ({L} -> {L}) (fun x => x) (fun x => x))"
        f" (Id ({eqv_ll}) (idEqv1 {L}) (idEqv1 {L}))"
        f" (fun p => {pair_p})"
        f" (pathAp ({eqv_ll}) ({L} -> {L}) (fun z => fst z)"
        f" (idEqv1 {L}) (idEqv1 {L}))"
        f" ({hom})"
        f" (universeOneLoopsEqvTrunc h (idEqv1 {L}) (idEqv1 {L}))",
        comment="Self-paths of the identity function form a proposition,\n"
        "as a retract of self-paths of the identity equivalence (the\n"
        "equivalence-witness component is propositional).",
        ref="identity-self-paths-are-propositional")
    f.d("def", "loopSelfPathsProp",
        f"isTrunc2 3 U1 -> isTrunc 1 ((w : {L}) -> Id {L} w w)",
        f"fun h => retractTrunc 1 ((w : {L}) -> Id {L} w w)"
        f" (Id ({L} -> {L}) (fun x => x) (fun x => x))"
        f" (funextMap {L} (fun w => {L}) (fun x => x) (fun x => x))"
        f" (happly {L} (fun w => {L}) (fun x => x) (fun x => x))"
        f" (funextTriangle {L} (fun w => {L}) (fun x => x) (fun x => x))"
        " (identityPathsTrunc h)",
        ref="self-path-families-are-propositional")
    g_of = (lambda h: "fst (sigmaPathSplit U0 (fun Y => Id U0 Y Y)"
            f" (Two, swapPath) (Two, swapPath) {atom(h)})")
    ga = g_of("reflCommuterPaths (Two, swapPath)")
    gb = g_of("selfCommuterPaths (Two, swapPath)")
    e_alpha = ("splitFstPair U0 (fun Y => Id U0 Y Y) Two Two"
               " (fst (reflCommuter Two swapPath)) swapPath swapPath"
               " (commuteToFixed Two swapPath (fst (reflCommuter Two swapPath))"
               " (snd (reflCommuter Two swapPath)))")
    e_beta = ("splitFstPair U0 (fun Y => Id U0 Y Y) Two Two"
              " (fst (selfCommuter Two swapPath)) swapPath swapPath"
              " (commuteToFixed Two swapPath (fst (selfCommuter Two swapPath))"
              " (snd (selfCommuter Two swapPath)))")
    ev_w = (f"happly {L} (fun w => Id {L} w w) reflCommuterPaths"
            " selfCommuterPaths"
            " (fst (loopSelfPathsProp h reflCommuterPaths selfCommuterPaths))"
            " (Two, swapPath)")
    mid = (f"pathAp (Id {L} (Two, swapPath) (Two, swapPath)) (Id U0 Two Two)"
           f" (fun z => {g_of('z')})"
           " (reflCommuterPaths (Two, swapPath))"
           " (selfCommuterPaths (Two, swapPath))"
           f" ({ev_w})")
    total = (f"pathComp (Id U0 Two Two) (refl Two) ({gb}) swapPath"
             f" (pathComp (Id U0 Two Two) (refl Two) ({ga}) ({gb})"
             f" (pathInv (Id U0 Two Two) ({ga}) (refl Two) ({e_alpha}))"
             f" ({mid}))"
             f" ({e_beta})")
    f.d("def", "universeOneNotGroupoid",
        "isTrunc2 3 U1 -> Empty",
        "fun h => swapPathNontrivial"
        f" (pathInv (Id U0 Two Two) (refl Two) swapPath ({total}))",
        comment="If self-path families were propositional, the trivial and\n"
        "self companions would give equal self-paths at the swap-pointed\n"
        "two-element type; their first components are reflexivity and the\n"
        "swap path respectively.",
        ref="universe-one-is-not-a-one-type")
    f.d("goal", "universeOneNotGroupoidCheck",
        "isTrunc2 3 U1 -> Empty",
        "universeOneNotGroupoid",
        ref="universe-one-is-not-a-one-type")
    return f


def subuniverse1() -> HottFile:
    f = HottFile(
        "levels/level1/32-subuniverse1.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="The sub-universe of one-types, based at the loop total type of\n"
        "the previous level; the lifted two-loop on the next universe and\n"
        "its transfer into the sub-universe.",
    )
    _sub_universe(f, 1)
    _step(f, 1)
    _universe_not_trunc(f, 1, "universeOneNotGroupoidFromLoops", "universe-one-is-not-a-one-type",
                        comment="The lifted-loop route to the same theorem.")
    _forget(f, 1)
    _goals(f, 1)
    return f


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------

def subuniverse2() -> HottFile:
    f = HottFile(
        "levels/level2/40-subuniverse2.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="The sub-universe of two-types, based at the loop total type of\n"
        "the previous level.",
    )
    _sub_universe(f, 2)
    return f


def theorems2() -> HottFile:
    f = HottFile(
        "levels/level2/41-theorems2.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="The lifted three-loop on the third universe, the resulting\n"
        "truncation refutations, and their sub-universe transfers.",
    )
    _step(f, 2)
    _universe_not_trunc(f, 2, "universeTwoNotTwoType", "universe-two-is-not-a-two-type")
    f.d("goal", "universeTwoNotTwoTypeCheck",
        "isTrunc3 4 U2 -> Empty",
        "universeTwoNotTwoType",
        ref="universe-two-is-not-a-two-type")
    _forget(f, 2)
    _goals(f, 2)
    return f


def emit_level(n: int) -> list[HottFile]:
    if n == 0:
        return [swap_loop(), universe0_not_set(), subuniverse0()]
    if n == 1:
        return [commuting_loops(), universe1_not_groupoid(), subuniverse1()]
    if n == 2:
        return [subuniverse2(), theorems2()]
    raise ValueError(f"no level {n} in the corpus (levels are 0, 1, 2)")


def emit_levels(n_max: int = 2) -> list[HottFile]:
    out: list[HottFile] = []
    for n in range(n_max + 1):
        out.extend(emit_level(n))
    return out
