"""Prelude emission: path algebra, pair paths, truncation levels,
equivalences, function extensionality, univalence, and the two-element
type, all at the concrete universe levels the rest of the corpus uses.

Lemmas that do not mention a universe in their own statement are proved
once at an ambient level (U6); cumulativity lets every lower-level type
use them.  Definitions whose *result* universe matters (truncation
predicates, equivalence types, the univalence axioms) are instantiated
per level with a numeric suffix.
"""

from __future__ import annotations

from .build import HottFile

# Levels at which universe-indexed definitions are instantiated.
EQV_LEVELS = (0, 1, 2, 3, 4, 6)
UA_LEVELS = (0, 1, 2, 3)
TRUNC_LEVELS = (0, 1, 2, 3, 4)


def path_algebra() -> HottFile:
    f = HottFile(
        "prelude/01-path-algebra.hott",
        header="Path algebra: inverse, composition, action on paths, transport.\n"
        "All eliminations are instances of J; composition recurses on its\n"
        "first argument, so `pathComp (refl x) q` reduces to `q`.",
    )
    f.d("def", "pathInv",
        "(A : U6) (x y : A) -> Id A x y -> Id A y x",
        "fun A x y p => J (fun a b q => Id A b a) (fun a => refl a) p",
        ref="path-inverse")
    f.d("def", "pathComp",
        "(A : U6) (x y z : A) -> Id A x y -> Id A y z -> Id A x z",
        "fun A x y z p => J (fun a b q => Id A b z -> Id A a z) (fun a => fun r => r) p",
        ref="path-composition")
    f.d("def", "compIdRight",
        "(A : U6) (x y : A) (p : Id A x y) -> Id (Id A x y) (pathComp A x y y p (refl y)) p",
        "fun A x y p => J (fun a b q => Id (Id A a b) (pathComp A a b b q (refl b)) q)"
        " (fun a => refl (refl a)) p",
        ref="composition-unit-laws")
    f.d("def", "compAssoc",
        "(A : U6) (w x y z : A) (p : Id A w x) (q : Id A x y) (r : Id A y z)"
        " -> Id (Id A w z) (pathComp A w y z (pathComp A w x y p q) r)"
        " (pathComp A w x z p (pathComp A x y z q r))",
        "fun A w x y z p => J (fun a b pp => (q : Id A b y) -> (r : Id A y z) ->"
        " Id (Id A a z) (pathComp A a y z (pathComp A a b y pp q) r)"
        " (pathComp A a b z pp (pathComp A b y z q r)))"
        " (fun a => fun q r => refl (pathComp A a y z q r)) p",
        ref="composition-associativity")
    f.d("def", "compInvLeft",
        "(A : U6) (x y : A) (p : Id A x y)"
        " -> Id (Id A y y) (pathComp A y x y (pathInv A x y p) p) (refl y)",
        "fun A x y p => J (fun a b q =>"
        " Id (Id A b b) (pathComp A b a b (pathInv A a b q) q) (refl b))"
        " (fun a => refl (refl a)) p",
        ref="composition-inverse-laws")
    f.d("def", "compInvRight",
        "(A : U6) (x y : A) (p : Id A x y)"
        " -> Id (Id A x x) (pathComp A x y x p (pathInv A x y p)) (refl x)",
        "fun A x y p => J (fun a b q =>"
        " Id (Id A a a) (pathComp A a b a q (pathInv A a b q)) (refl a))"
        " (fun a => refl (refl a)) p",
        ref="composition-inverse-laws")
    f.d("def", "invInv",
        "(A : U6) (x y : A) (p : Id A x y)"
        " -> Id (Id A x y) (pathInv A y x (pathInv A x y p)) p",
        "fun A x y p => J (fun a b q =>"
        " Id (Id A a b) (pathInv A b a (pathInv A a b q)) q)"
        " (fun a => refl (refl a)) p",
        ref="path-inverse")
    f.d("def", "pathAp",
        "(A B : U6) (f : A -> B) (x y : A) -> Id A x y -> Id B (f x) (f y)",
        "fun A B f x y p => J (fun a b q => Id B (f a) (f b)) (fun a => refl (f a)) p",
        ref="action-on-paths")
    f.d("def", "transport",
        "(A : U6) (P : A -> U6) (x y : A) -> Id A x y -> P x -> P y",
        "fun A P x y p => J (fun a b q => P a -> P b) (fun a => fun u => u) p",
        ref="transport")
    f.d("def", "apDep",
        "(A : U6) (P : A -> U6) (f : (a : A) -> P a) (x y : A) (p : Id A x y)"
        " -> Id (P y) (transport A P x y p (f x)) (f y)",
        "fun A P f x y p => J (fun a b q => Id (P b) (transport A P a b q (f a)) (f b))"
        " (fun a => refl (f a)) p",
        ref="dependent-action-on-paths")
    f.d("def", "happly",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a)"
        " -> Id ((a : A) -> P a) f g -> (a : A) -> Id (P a) (f a) (g a)",
        "fun A P f g p a => pathAp ((x : A) -> P x) (P a) (fun h => h a) f g p",
        ref="pointwise-application-of-function-paths")
    f.d("def", "transportIdLeft",
        "(A : U6) (a x y : A) (q : Id A x y) (r : Id A x a)"
        " -> Id (Id A y a) (transport A (fun b => Id A b a) x y q r)"
        " (pathComp A y x a (pathInv A x y q) r)",
        "fun A a x y q => J (fun b c qq => (r : Id A b a) ->"
        " Id (Id A c a) (transport A (fun d => Id A d a) b c qq r)"
        " (pathComp A c b a (pathInv A b c qq) r))"
        " (fun b => fun r => refl r) q",
        ref="transport-in-path-families")
    f.d("def", "transportIdRight",
        "(A : U6) (a x y : A) (q : Id A x y) (r : Id A a x)"
        " -> Id (Id A a y) (transport A (fun b => Id A a b) x y q r)"
        " (pathComp A a x y r q)",
        "fun A a x y q => J (fun b c qq => (r : Id A a b) ->"
        " Id (Id A a c) (transport A (fun d => Id A a d) b c qq r)"
        " (pathComp A a b c r qq))"
        " (fun b => fun r => pathInv (Id A a b) (pathComp A a b b r (refl b)) r"
        " (compIdRight A a b r)) q",
        ref="transport-in-path-families")
    f.d("def", "transportLoop",
        "(A : U6) (x y : A) (q : Id A x y) (p : Id A x x)"
        " -> Id (Id A y y) (transport A (fun b => Id A b b) x y q p)"
        " (pathComp A y x y (pathInv A x y q) (pathComp A x x y p q))",
        "fun A x y q => J (fun b c qq => (p : Id A b b) ->"
        " Id (Id A c c) (transport A (fun d => Id A d d) b c qq p)"
        " (pathComp A c b c (pathInv A b c qq) (pathComp A b b c p qq)))"
        " (fun b => fun p => pathInv (Id A b b) (pathComp A b b b p (refl b)) p"
        " (compIdRight A b b p)) q",
        comment="Transporting a loop along a path conjugates it: the rewrite of a\n"
        "loop-family transport as inverse-compose-compose.",
        ref="transport-of-loops-is-conjugation")
    f.d("def", "transportLoopFixed",
        "(A : U6) (x : A) (q : Id A x x)"
        " -> Id (Id A x x) (transport A (fun b => Id A b b) x x q q) q",
        "fun A x q => pathComp (Id A x x)"
        " (transport A (fun b => Id A b b) x x q q)"
        " (pathComp A x x x (pathInv A x x q) (pathComp A x x x q q))"
        " q"
        " (transportLoop A x x q q)"
        " (pathComp (Id A x x)"
        " (pathComp A x x x (pathInv A x x q) (pathComp A x x x q q))"
        " (pathComp A x x x (pathComp A x x x (pathInv A x x q) q) q)"
        " q"
        " (pathInv (Id A x x)"
        " (pathComp A x x x (pathComp A x x x (pathInv A x x q) q) q)"
        " (pathComp A x x x (pathInv A x x q) (pathComp A x x x q q))"
        " (compAssoc A x x x x (pathInv A x x q) q q))"
        " (pathAp (Id A x x) (Id A x x) (fun z => pathComp A x x x z q)"
        " (pathComp A x x x (pathInv A x x q) q) (refl x)"
        " (compInvLeft A x x q)))",
        comment="A loop is a fixed point of transporting itself along itself:\n"
        "conjugating q by q gives q back, by cancellation.",
        ref="self-conjugation-fixed-point")
    f.d("def", "transportLoopRefl",
        "(A : U6) (x : A) (p : Id A x x)"
        " -> Id (Id A x x) (transport A (fun b => Id A b b) x x (refl x) p) p",
        "fun A x p => refl p",
        ref="identity-conjugation-fixed-point")
    f.d("def", "transportAlongAp",
        "(A B : U6) (f : A -> B) (P : B -> U6) (x y : A) (q : Id A x y) (u : P (f x))"
        " -> Id (P (f y)) (transport A (fun a => P (f a)) x y q u)"
        " (transport B P (f x) (f y) (pathAp A B f x y q) u)",
        "fun A B f P x y q => J (fun a b qq => (u : P (f a)) ->"
        " Id (P (f b)) (transport A (fun c => P (f c)) a b qq u)"
        " (transport B P (f a) (f b) (pathAp A B f a b qq) u))"
        " (fun a => fun u => refl u) q",
        ref="transport-along-composed-families")
    f.d("def", "transportBackForth",
        "(A : U6) (P : A -> U6) (x y : A) (p : Id A x y) (u : P y)"
        " -> Id (P y) (transport A P x y p (transport A P y x (pathInv A x y p) u)) u",
        "fun A P x y p => J (fun a b q => (u : P b) ->"
        " Id (P b) (transport A P a b q (transport A P b a (pathInv A a b q) u)) u)"
        " (fun a => fun u => refl u) p",
        ref="transport-cancellation")
    f.d("def", "transportForthBack",
        "(A : U6) (P : A -> U6) (x y : A) (p : Id A x y) (u : P x)"
        " -> Id (P x) (transport A P y x (pathInv A x y p) (transport A P x y p u)) u",
        "fun A P x y p => J (fun a b q => (u : P a) ->"
        " Id (P a) (transport A P b a (pathInv A a b q) (transport A P a b q u)) u)"
        " (fun a => fun u => refl u) p",
        ref="transport-cancellation")
    return f


def pair_paths() -> HottFile:
    f = HottFile(
        "prelude/02-pair-paths.hott",
        pragmas=["requires-eta-sigma"],
        header="Characterization of paths in dependent pair types: a path between\n"
        "pairs is a path between the first components together with a path\n"
        "between the transported second components, and the two directions\n"
        "compose to the identity.",
    )
    f.d("def", "pairPath",
        "(A : U6) (P : A -> U6) (x y : A) (p : Id A x y) (u : P x) (v : P y)"
        " -> Id (P y) (transport A P x y p u) v -> Id ((a : A) * P a) (x, u) (y, v)",
        "fun A P x y p => J (fun a b q => (u : P a) -> (v : P b) ->"
        " Id (P b) (transport A P a b q u) v -> Id ((c : A) * P c) (a, u) (b, v))"
        " (fun a => fun u v r => J (fun u' v' r' => Id ((c : A) * P c) (a, u') (a, v'))"
        " (fun u' => refl (a, u')) r) p",
        ref="pair-paths-from-component-paths")
    f.d("def", "sigmaPathSplit",
        "(A : U6) (P : A -> U6) (u v : (a : A) * P a) -> Id ((a : A) * P a) u v"
        " -> (q : Id A (fst u) (fst v))"
        " * Id (P (fst v)) (transport A P (fst u) (fst v) q (snd u)) (snd v)",
        "fun A P u v h => J (fun w w' q => (qq : Id A (fst w) (fst w'))"
        " * Id (P (fst w')) (transport A P (fst w) (fst w') qq (snd w)) (snd w'))"
        " (fun w => (refl (fst w), refl (snd w))) h",
        ref="component-paths-from-pair-paths")
    f.d("def", "splitThenPair",
        "(A : U6) (P : A -> U6) (u v : (a : A) * P a) (h : Id ((a : A) * P a) u v)"
        " -> Id (Id ((a : A) * P a) u v)"
        " (pairPath A P (fst u) (fst v) (fst (sigmaPathSplit A P u v h)) (snd u) (snd v)"
        " (snd (sigmaPathSplit A P u v h))) h",
        "fun A P u v h => J (fun w w' hh => Id (Id ((a : A) * P a) w w')"
        " (pairPath A P (fst w) (fst w') (fst (sigmaPathSplit A P w w' hh)) (snd w) (snd w')"
        " (snd (sigmaPathSplit A P w w' hh))) hh)"
        " (fun w => refl (refl w)) h",
        ref="pair-path-round-trip")
    f.d("def", "pairThenSplit",
        "(A : U6) (P : A -> U6) (x y : A) (q : Id A x y) (u : P x) (v : P y)"
        " (r : Id (P y) (transport A P x y q u) v)"
        " -> Id ((q2 : Id A x y) * Id (P y) (transport A P x y q2 u) v)"
        " (sigmaPathSplit A P (x, u) (y, v) (pairPath A P x y q u v r)) (q, r)",
        "fun A P x y q => J (fun a b qq => (u : P a) -> (v : P b) ->"
        " (r : Id (P b) (transport A P a b qq u) v) ->"
        " Id ((q2 : Id A a b) * Id (P b) (transport A P a b q2 u) v)"
        " (sigmaPathSplit A P (a, u) (b, v) (pairPath A P a b qq u v r)) (qq, r))"
        " (fun a => fun u v r => J (fun u' v' r' =>"
        " Id ((q2 : Id A a a) * Id (P a) (transport A P a a q2 u') v')"
        " (sigmaPathSplit A P (a, u') (a, v') (pairPath A P a a (refl a) u' v' r'))"
        " (refl a, r'))"
        " (fun u' => refl (refl a, refl u')) r) q",
        ref="component-path-round-trip")
    f.d("def", "splitFstPair",
        "(A : U6) (P : A -> U6) (x y : A) (q : Id A x y) (u : P x) (v : P y)"
        " (r : Id (P y) (transport A P x y q u) v)"
        " -> Id (Id A x y)"
        " (fst (sigmaPathSplit A P (x, u) (y, v) (pairPath A P x y q u v r))) q",
        "fun A P x y q u v r => pathAp"
        " ((q2 : Id A x y) * Id (P y) (transport A P x y q2 u) v) (Id A x y)"
        " (fun w => fst w)"
        " (sigmaPathSplit A P (x, u) (y, v) (pairPath A P x y q u v r)) (q, r)"
        " (pairThenSplit A P x y q u v r)",
        ref="first-component-of-a-pair-path")
    f.d("def", "apFstIsSplitFst",
        "(A : U6) (P : A -> U6) (u v : (a : A) * P a) (h : Id ((a : A) * P a) u v)"
        " -> Id (Id A (fst u) (fst v))"
        " (pathAp ((a : A) * P a) A (fun z => fst z) u v h)"
        " (fst (sigmaPathSplit A P u v h))",
        "fun A P u v h => J (fun w w' hh => Id (Id A (fst w) (fst w'))"
        " (pathAp ((a : A) * P a) A (fun z => fst z) w w' hh)"
        " (fst (sigmaPathSplit A P w w' hh)))"
        " (fun w => refl (refl (fst w))) h",
        ref="first-component-of-a-pair-path")
    return f


def truncation() -> HottFile:
    f = HottFile(
        "prelude/03-truncation.hott",
        pragmas=["requires-eta-sigma"],
        header="Truncation levels by internal recursion on a natural number:\n"
        "index 0 is contractibility, index n+1 asks every path type to be\n"
        "n-truncated.  Closure properties: successor lifting, retracts,\n"
        "dependent pairs, singletons.",
    )
    contr_body = "(a : A) * ((x : A) -> Id A a x)"
    f.d("def", "isTrunc",
        "Nat -> U6 -> U6",
        f"fun n => natElim (fun m => U6 -> U6) (fun A => {contr_body})"
        " (fun m ih => fun A => (x : A) -> (y : A) -> ih (Id A x y)) n",
        ref="truncatedness-predicate")
    for i in TRUNC_LEVELS:
        f.d("def", f"isTrunc{i}",
            f"Nat -> U{i} -> U{i}",
            f"fun n => natElim (fun m => U{i} -> U{i}) (fun A => {contr_body})"
            " (fun m ih => fun A => (x : A) -> (y : A) -> ih (Id A x y)) n",
            ref="truncatedness-predicate",
            comment=f"Same recursion landing in U{i}; at a numeral index the two"
            " agree definitionally.")
    f.d("def", "contrCenter",
        "(A : U6) -> isTrunc 0 A -> A",
        "fun A h => fst h")
    f.d("def", "contrPath",
        "(A : U6) -> isTrunc 0 A -> (x y : A) -> Id A x y",
        "fun A h x y => pathComp A x (fst h) y (pathInv A (fst h) x (snd h x)) (snd h y)",
        ref="contractible-types-are-path-connected")
    f.d("def", "truncSucc",
        "(n : Nat) (A : U6) -> isTrunc n A -> isTrunc (suc n) A",
        "fun n => natElim (fun m => (A : U6) -> isTrunc m A -> isTrunc (suc m) A)"
        " (fun A h x y => ("
        "pathComp A x (fst h) y (pathInv A (fst h) x (snd h x)) (snd h y)"
        ", fun p => J (fun a b pp => Id (Id A a b)"
        " (pathComp A a (fst h) b (pathInv A (fst h) a (snd h a)) (snd h b)) pp)"
        " (fun a => compInvLeft A (fst h) a (snd h a)) p))"
        " (fun m ih => fun A h x y => ih (Id A x y) (h x y)) n",
        ref="truncation-is-upward-closed")
    f.d("def", "contrTrunc",
        "(n : Nat) (A : U6) -> isTrunc 0 A -> isTrunc n A",
        "fun n => natElim (fun m => (A : U6) -> isTrunc 0 A -> isTrunc m A)"
        " (fun A h => h) (fun m ih => fun A h => truncSucc m A (ih A h)) n",
        ref="truncation-is-upward-closed")
    f.d("def", "truncRaiseFrom1",
        "(n : Nat) (A : U6) -> isTrunc 1 A -> isTrunc (suc n) A",
        "fun n => natElim (fun m => (A : U6) -> isTrunc 1 A -> isTrunc (suc m) A)"
        " (fun A h => h) (fun m ih => fun A h => truncSucc (suc m) A (ih A h)) n",
        ref="truncation-is-upward-closed")
    f.d("def", "truncRaiseFrom2",
        "(n : Nat) (A : U6) -> isTrunc 2 A -> isTrunc (suc (suc n)) A",
        "fun n => natElim (fun m => (A : U6) -> isTrunc 2 A -> isTrunc (suc (suc m)) A)"
        " (fun A h => h) (fun m ih => fun A h => truncSucc (suc (suc m)) A (ih A h)) n",
        ref="truncation-is-upward-closed")
    f.d("def", "unitContr",
        "isTrunc 0 Unit",
        "(star, fun x => refl star)",
        comment="The path checks because all elements of the unit type are\n"
        "definitionally equal.",
        ref="unit-is-contractible")
    f.d("def", "allPathsTrunc",
        "(A : U6) -> ((x : A) -> (y : A) -> Id A x y) -> isTrunc 1 A",
        "fun A f x y => ("
        "pathComp A x x y (pathInv A x x (f x x)) (f x y)"
        ", fun p => J (fun a b pp => Id (Id A a b)"
        " (pathComp A a a b (pathInv A a a (f a a)) (f a b)) pp)"
        " (fun a => compInvLeft A a a (f a a)) p)",
        ref="path-connected-implies-propositional")
    f.d("def", "contrRetract",
        "(A B : U6) (s : A -> B) (r : B -> A) -> ((a : A) -> Id A (r (s a)) a)"
        " -> isTrunc 0 B -> isTrunc 0 A",
        "fun A B s r h c => (r (fst c)"
        ", fun a => pathComp A (r (fst c)) (r (s a)) a"
        " (pathAp B A r (fst c) (s a) (snd c (s a))) (h a))",
        ref="retracts-preserve-truncation")
    f.d("def", "retractTrunc",
        "(n : Nat) (A B : U6) (s : A -> B) (r : B -> A)"
        " -> ((a : A) -> Id A (r (s a)) a) -> isTrunc n B -> isTrunc n A",
        "fun n => natElim (fun m => (A B : U6) -> (s : A -> B) -> (r : B -> A) ->"
        " ((a : A) -> Id A (r (s a)) a) -> isTrunc m B -> isTrunc m A)"
        " (fun A B s r h c => contrRetract A B s r h c)"
        " (fun m ih => fun A B s r h t x y =>"
        " ih (Id A x y) (Id B (s x) (s y))"
        " (pathAp A B s x y)"
        " (fun q => pathComp A x (r (s x)) y (pathInv A (r (s x)) x (h x))"
        " (pathComp A (r (s x)) (r (s y)) y (pathAp B A r (s x) (s y) q) (h y)))"
        " (fun p => J (fun a b pp => Id (Id A a b)"
        " (pathComp A a (r (s a)) b (pathInv A (r (s a)) a (h a))"
        " (pathComp A (r (s a)) (r (s b)) b"
        " (pathAp B A r (s a) (s b) (pathAp A B s a b pp)) (h b))) pp)"
        " (fun a => compInvLeft A (r (s a)) a (h a)) p)"
        " (t (s x) (s y))) n",
        ref="retracts-preserve-truncation")
    f.d("def", "contrSigma",
        "(A : U6) (P : A -> U6) -> isTrunc 0 A -> ((a : A) -> isTrunc 0 (P a))"
        " -> isTrunc 0 ((a : A) * P a)",
        "fun A P cA cP => ((fst cA, fst (cP (fst cA)))"
        ", fun w => pairPath A P (fst cA) (fst w) (snd cA (fst w))"
        " (fst (cP (fst cA))) (snd w)"
        " (contrPath (P (fst w)) (cP (fst w))"
        " (transport A P (fst cA) (fst w) (snd cA (fst w)) (fst (cP (fst cA)))) (snd w)))",
        ref="pairs-preserve-truncation")
    f.d("def", "sigmaTrunc",
        "(n : Nat) (A : U6) (P : A -> U6) -> isTrunc n A"
        " -> ((a : A) -> isTrunc n (P a)) -> isTrunc n ((a : A) * P a)",
        "fun n => natElim (fun m => (A : U6) -> (P : A -> U6) -> isTrunc m A ->"
        " ((a : A) -> isTrunc m (P a)) -> isTrunc m ((a : A) * P a))"
        " (fun A P tA tP => contrSigma A P tA tP)"
        " (fun m ih => fun A P tA tP u v =>"
        " retractTrunc m (Id ((a : A) * P a) u v)"
        " ((q : Id A (fst u) (fst v))"
        " * Id (P (fst v)) (transport A P (fst u) (fst v) q (snd u)) (snd v))"
        " (sigmaPathSplit A P u v)"
        " (fun w => pairPath A P (fst u) (fst v) (fst w) (snd u) (snd v) (snd w))"
        " (splitThenPair A P u v)"
        " (ih (Id A (fst u) (fst v))"
        " (fun q => Id (P (fst v)) (transport A P (fst u) (fst v) q (snd u)) (snd v))"
        " (tA (fst u) (fst v))"
        " (fun q => tP (fst v) (transport A P (fst u) (fst v) q (snd u)) (snd v)))) n",
        ref="pairs-preserve-truncation")
    f.d("def", "singContr",
        "(A : U6) (a : A) -> isTrunc 0 ((b : A) * Id A a b)",
        "fun A a => ((a, refl a)"
        ", fun w => pairPath A (fun b => Id A a b) a (fst w) (snd w) (refl a) (snd w)"
        " (transportIdRight A a a (fst w) (snd w) (refl a)))",
        ref="singletons-are-contractible")
    f.d("def", "singContrLeft",
        "(A : U6) (a : A) -> isTrunc 0 ((b : A) * Id A b a)",
        "fun A a => ((a, refl a)"
        ", fun w => pairPath A (fun b => Id A b a) a (fst w)"
        " (pathInv A (fst w) a (snd w)) (refl a) (snd w)"
        " (pathComp (Id A (fst w) a)"
        " (transport A (fun b => Id A b a) a (fst w) (pathInv A (fst w) a (snd w)) (refl a))"
        " (pathComp A (fst w) a a (pathInv A a (fst w) (pathInv A (fst w) a (snd w))) (refl a))"
        " (snd w)"
        " (transportIdLeft A a a (fst w) (pathInv A (fst w) a (snd w)) (refl a))"
        " (pathComp (Id A (fst w) a)"
        " (pathComp A (fst w) a a (pathInv A a (fst w) (pathInv A (fst w) a (snd w))) (refl a))"
        " (pathInv A a (fst w) (pathInv A (fst w) a (snd w)))"
        " (snd w)"
        " (compIdRight A (fst w) a (pathInv A a (fst w) (pathInv A (fst w) a (snd w))))"
        " (invInv A (fst w) a (snd w)))))",
        ref="singletons-are-contractible")
    return f


def equivalence_core() -> HottFile:
    f = HottFile(
        "prelude/04-equivalence.hott",
        header="Equivalences as two-sided invertible maps: a left inverse with a\n"
        "retraction homotopy plus a right inverse with a section homotopy.\n"
        "Instantiated per universe level because the equivalence type must\n"
        "live in the same universe as its endpoints.",
    )
    for i in EQV_LEVELS:
        f.d("def", f"isEquiv{i}",
            f"(A B : U{i}) -> (A -> B) -> U{i}",
            "fun A B f => ((g : B -> A) * ((a : A) -> Id A (g (f a)) a))"
            " * ((h : B -> A) * ((b : B) -> Id B (f (h b)) b))",
            ref="two-sided-invertibility")
        f.d("def", f"eqv{i}",
            f"(A B : U{i}) -> U{i}",
            f"fun A B => (f : A -> B) * isEquiv{i} A B f",
            ref="equivalence-type")
        f.d("def", f"idIsEquiv{i}",
            f"(A : U{i}) -> isEquiv{i} A A (fun x => x)",
            "fun A => ((fun x => x, fun a => refl a), (fun x => x, fun b => refl b))",
            ref="identity-equivalence-witness")
        f.d("def", f"idEqv{i}",
            f"(A : U{i}) -> eqv{i} A A",
            f"fun A => (fun x => x, idIsEquiv{i} A)",
            ref="identity-equivalence")
        f.d("def", f"idtoeqv{i}",
            f"(A B : U{i}) -> Id U{i} A B -> eqv{i} A B",
            f"fun A B p => J (fun X Y q => eqv{i} X Y) (fun X => idEqv{i} X) p",
            ref="paths-to-equivalences")
    return f


def funext() -> HottFile:
    f = HottFile(
        "prelude/05-funext.hott",
        pragmas=["requires-funext", "requires-eta-sigma"],
        header="Function extensionality in its strong form: pointwise application\n"
        "of function paths is an equivalence.  Everything in this file and\n"
        "its dependents needs the axiom.",
    )
    f.d("axiom", "happlyIsEquiv",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a)"
        " -> isEquiv6 (Id ((a : A) -> P a) f g) ((a : A) -> Id (P a) (f a) (g a))"
        " (happly A P f g)",
        ref="strong-function-extensionality")
    f.d("def", "funextMap",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a)"
        " -> ((a : A) -> Id (P a) (f a) (g a)) -> Id ((a : A) -> P a) f g",
        "fun A P f g => fst (snd (happlyIsEquiv A P f g))",
        ref="function-paths-from-pointwise-paths")
    f.d("def", "funextTriangle",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a)"
        " (k : (a : A) -> Id (P a) (f a) (g a))"
        " -> Id ((a : A) -> Id (P a) (f a) (g a))"
        " (happly A P f g (funextMap A P f g k)) k",
        "fun A P f g k => snd (snd (happlyIsEquiv A P f g)) k",
        ref="strong-function-extensionality")
    f.d("def", "funextLinv",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a)"
        " -> ((a : A) -> Id (P a) (f a) (g a)) -> Id ((a : A) -> P a) f g",
        "fun A P f g => fst (fst (happlyIsEquiv A P f g))",
        ref="strong-function-extensionality")
    f.d("def", "funextLinvTriangle",
        "(A : U6) (P : A -> U6) (f g : (a : A) -> P a) (p : Id ((a : A) -> P a) f g)"
        " -> Id (Id ((a : A) -> P a) f g)"
        " (funextLinv A P f g (happly A P f g p)) p",
        "fun A P f g => snd (fst (happlyIsEquiv A P f g))",
        ref="strong-function-extensionality")
    f.d("def", "piTrunc",
        "(n : Nat) (A : U6) (P : A -> U6) -> ((a : A) -> isTrunc n (P a))"
        " -> isTrunc n ((a : A) -> P a)",
        "fun n => natElim (fun m => (A : U6) -> (P : A -> U6) ->"
        " ((a : A) -> isTrunc m (P a)) -> isTrunc m ((a : A) -> P a))"
        " (fun A P h => (fun a => fst (h a)"
        ", fun g => funextMap A P (fun a => fst (h a)) g (fun a => snd (h a) (g a))))"
        " (fun m ih => fun A P h f g =>"
        " retractTrunc m (Id ((a : A) -> P a) f g) ((a : A) -> Id (P a) (f a) (g a))"
        " (happly A P f g) (funextLinv A P f g) (funextLinvTriangle A P f g)"
        " (ih A (fun a => Id (P a) (f a) (g a)) (fun a => h a (f a) (g a)))) n",
        ref="function-types-preserve-truncation")
    f.d("def", "contrIsProp",
        "(A : U6) -> isTrunc 1 (isTrunc 0 A)",
        "fun A => allPathsTrunc (isTrunc 0 A) (fun h h' =>"
        " pairPath A (fun a => (x : A) -> Id A a x) (fst h) (fst h') (snd h (fst h'))"
        " (snd h) (snd h')"
        " (funextMap A (fun x => Id A (fst h') x)"
        " (transport A (fun a => (x : A) -> Id A a x) (fst h) (fst h') (snd h (fst h')) (snd h))"
        " (snd h')"
        " (fun x => contrPath (Id A (fst h') x) (truncSucc 0 A h (fst h') x)"
        " (transport A (fun a => (x2 : A) -> Id A a x2) (fst h) (fst h') (snd h (fst h'))"
        " (snd h) x)"
        " (snd h' x))))",
        ref="contractibility-is-propositional")
    f.d("def", "isTruncIsProp",
        "(n : Nat) (A : U6) -> isTrunc 1 (isTrunc n A)",
        "fun n => natElim (fun m => (A : U6) -> isTrunc 1 (isTrunc m A))"
        " (fun A => contrIsProp A)"
        " (fun m ih => fun A => piTrunc 1 A (fun x => (y : A) -> isTrunc m (Id A x y))"
        " (fun x => piTrunc 1 A (fun y => isTrunc m (Id A x y))"
        " (fun y => ih (Id A x y)))) n",
        ref="truncatedness-is-propositional")
    f.d("def", "contrLinvId",
        "(A : U6) -> isTrunc 0 ((g : A -> A) * ((x : A) -> Id A (g x) x))",
        "fun A => contrRetract"
        " ((g : A -> A) * ((x : A) -> Id A (g x) x))"
        " ((g : A -> A) * Id (A -> A) g (fun x => x))"
        " (fun w => (fst w, funextMap A (fun a => A) (fst w) (fun x => x) (snd w)))"
        " (fun w => (fst w, happly A (fun a => A) (fst w) (fun x => x) (snd w)))"
        " (fun w => pairPath (A -> A) (fun g => (x : A) -> Id A (g x) x)"
        " (fst w) (fst w) (refl (fst w))"
        " (happly A (fun a => A) (fst w) (fun x => x)"
        " (funextMap A (fun a => A) (fst w) (fun x => x) (snd w)))"
        " (snd w)"
        " (funextTriangle A (fun a => A) (fst w) (fun x => x) (snd w)))"
        " (singContrLeft (A -> A) (fun x => x))",
        ref="pointed-retractions-of-the-identity-form-a-singleton")
    f.d("def", "contrIsEquivId",
        "(A : U6) -> isTrunc 0 (isEquiv6 A A (fun x => x))",
        "fun A => contrSigma"
        " ((g : A -> A) * ((x : A) -> Id A (g x) x))"
        " (fun u => (h : A -> A) * ((x : A) -> Id A (h x) x))"
        " (contrLinvId A) (fun u => contrLinvId A)",
        ref="being-an-equivalence-is-contractible-for-the-identity")
    return f


def univalence() -> HottFile:
    f = HottFile(
        "prelude/06-univalence.hott",
        pragmas=["requires-ua", "requires-funext", "requires-eta-sigma"],
        header="Univalence, one axiom per universe level: turning paths between\n"
        "types into equivalences is itself an equivalence.  Derived here:\n"
        "the inverse map, both round trips, transport along a converted\n"
        "path, contractibility of the equivalence singleton, equivalence\n"
        "induction, and propositionality of being an equivalence.",
    )
    for i in UA_LEVELS:
        f.d("axiom", f"univalence{i}",
            f"(A B : U{i}) -> isEquiv{i + 1} (Id U{i} A B) (eqv{i} A B) (idtoeqv{i} A B)",
            ref="univalence")
        f.d("def", f"equivToPath{i}",
            f"(A B : U{i}) -> eqv{i} A B -> Id U{i} A B",
            f"fun A B => fst (snd (univalence{i} A B))",
            ref="paths-from-equivalences")
        f.d("def", f"uaEpsilon{i}",
            f"(A B : U{i}) (e : eqv{i} A B)"
            f" -> Id (eqv{i} A B) (idtoeqv{i} A B (equivToPath{i} A B e)) e",
            f"fun A B => snd (snd (univalence{i} A B))",
            ref="univalence-round-trip")
        f.d("def", f"pathFromEquivL{i}",
            f"(A B : U{i}) -> eqv{i} A B -> Id U{i} A B",
            f"fun A B => fst (fst (univalence{i} A B))",
            ref="paths-from-equivalences")
        f.d("def", f"uaEta{i}",
            f"(A B : U{i}) (p : Id U{i} A B)"
            f" -> Id (Id U{i} A B) (pathFromEquivL{i} A B (idtoeqv{i} A B p)) p",
            f"fun A B => snd (fst (univalence{i} A B))",
            ref="univalence-round-trip")
        f.d("def", f"transportIdtoeqv{i}",
            f"(A B : U{i}) (p : Id U{i} A B) (x : A)"
            f" -> Id B (transport U{i} (fun T => T) A B p x)"
            f" (fst (idtoeqv{i} A B p) x)",
            f"fun A B p => J (fun X Y q => (x : X) ->"
            f" Id Y (transport U{i} (fun T => T) X Y q x) (fst (idtoeqv{i} X Y q) x))"
            " (fun X => fun x => refl x) p",
            ref="transport-computes-along-converted-paths")
        f.d("def", f"eqvSingContr{i}",
            f"(A : U{i}) -> isTrunc 0 ((B : U{i}) * eqv{i} A B)",
            f"fun A => contrRetract"
            f" ((B : U{i}) * eqv{i} A B)"
            f" ((B : U{i}) * Id U{i} A B)"
            f" (fun w => (fst w, equivToPath{i} A (fst w) (snd w)))"
            f" (fun w => (fst w, idtoeqv{i} A (fst w) (snd w)))"
            f" (fun w => pairPath U{i} (fun B => eqv{i} A B) (fst w) (fst w)"
            f" (refl (fst w))"
            f" (idtoeqv{i} A (fst w) (equivToPath{i} A (fst w) (snd w)))"
            " (snd w)"
            f" (uaEpsilon{i} A (fst w) (snd w)))"
            f" (singContr U{i} A)",
            ref="equivalence-singletons-are-contractible")
        f.d("def", f"equivInduction{i}",
            f"(A : U{i}) (T : ((B : U{i}) * eqv{i} A B) -> U6)"
            f" -> T (A, idEqv{i} A) -> (w : (B : U{i}) * eqv{i} A B) -> T w",
            f"fun A T t w => transport ((B : U{i}) * eqv{i} A B) T"
            f" (A, idEqv{i} A) w"
            f" (contrPath ((B : U{i}) * eqv{i} A B) (eqvSingContr{i} A)"
            f" (A, idEqv{i} A) w) t",
            ref="equivalence-induction")
        f.d("def", f"isEquivContr{i}",
            f"(A B : U{i}) (e : eqv{i} A B) -> isTrunc 0 (isEquiv{i} A B (fst e))",
            f"fun A B e => equivInduction{i} A"
            f" (fun w => isTrunc 0 (isEquiv{i} A (fst w) (fst (snd w))))"
            " (contrIsEquivId A) (B, e)",
            ref="being-an-equivalence-is-contractible")
        f.d("def", f"allPathsIsEquiv{i}",
            f"(A B : U{i}) (f : A -> B) (e1 e2 : isEquiv{i} A B f)"
            f" -> Id (isEquiv{i} A B f) e1 e2",
            f"fun A B f e1 e2 => contrPath (isEquiv{i} A B f)"
            f" (isEquivContr{i} A B (f, e1)) e1 e2",
            ref="being-an-equivalence-is-propositional")
        f.d("def", f"propIsEquiv{i}",
            f"(A B : U{i}) (f : A -> B) -> isTrunc 1 (isEquiv{i} A B f)",
            f"fun A B f => allPathsTrunc (isEquiv{i} A B f)"
            f" (fun e1 e2 => allPathsIsEquiv{i} A B f e1 e2)",
            ref="being-an-equivalence-is-propositional")
    return f


def two_type() -> HottFile:
    f = HottFile(
        "prelude/07-two.hott",
        header="The two-element type: the swap automorphism with its inverse\n"
        "data, the observational path characterization, its decidable\n"
        "consequences, and the proof that the type is a set.",
    )
    f.d("def", "swapTwo", "Two -> Two",
        "fun b => twoElim (fun x => Two) one2 zero2 b",
        ref="swap-automorphism")
    f.d("def", "swapInvol",
        "(b : Two) -> Id Two (swapTwo (swapTwo b)) b",
        "fun b => twoElim (fun x => Id Two (swapTwo (swapTwo x)) x)"
        " (refl zero2) (refl one2) b",
        ref="swap-is-an-involution")
    f.d("def", "swapIsEquiv", "isEquiv0 Two Two swapTwo",
        "((swapTwo, swapInvol), (swapTwo, swapInvol))",
        ref="swap-equivalence-witness")
    f.d("def", "swapEqv", "eqv0 Two Two", "(swapTwo, swapIsEquiv)",
        ref="swap-equivalence-witness")
    f.d("def", "twoCode", "Two -> Two -> U0",
        "fun a b => twoElim (fun x => U0)"
        " (twoElim (fun x => U0) Unit Empty b)"
        " (twoElim (fun x => U0) Empty Unit b) a",
        ref="observational-equality-on-two")
    f.d("def", "twoCodeRefl", "(a : Two) -> twoCode a a",
        "fun a => twoElim (fun x => twoCode x x) star star a")
    f.d("def", "twoEncode",
        "(a b : Two) -> Id Two a b -> twoCode a b",
        "fun a b p => transport Two (twoCode a) a b p (twoCodeRefl a)")
    f.d("def", "twoDecode",
        "(a b : Two) -> twoCode a b -> Id Two a b",
        "fun a b => twoElim (fun x => twoCode x b -> Id Two x b)"
        " (twoElim (fun y => twoCode zero2 y -> Id Two zero2 y)"
        " (fun c => refl zero2) (fun c => emptyElim (fun e => Id Two zero2 one2) c) b)"
        " (twoElim (fun y => twoCode one2 y -> Id Two one2 y)"
        " (fun c => emptyElim (fun e => Id Two one2 zero2) c) (fun c => refl one2) b) a")
    f.d("def", "twoDecodeEncode",
        "(a b : Two) (p : Id Two a b)"
        " -> Id (Id Two a b) (twoDecode a b (twoEncode a b p)) p",
        "fun a b p => J (fun x y q => Id (Id Two x y) (twoDecode x y (twoEncode x y q)) q)"
        " (fun x => twoElim (fun z => Id (Id Two z z)"
        " (twoDecode z z (twoEncode z z (refl z))) (refl z))"
        " (refl (refl zero2)) (refl (refl one2)) x) p")
    f.d("def", "twoCodeAllPaths",
        "(a b : Two) (c d : twoCode a b) -> Id (twoCode a b) c d",
        "fun a b => twoElim (fun x => (c d : twoCode x b) -> Id (twoCode x b) c d)"
        " (twoElim (fun y => (c d : twoCode zero2 y) -> Id (twoCode zero2 y) c d)"
        " (fun c d => refl c) (fun c d => emptyElim (fun e => Id Empty c d) c) b)"
        " (twoElim (fun y => (c d : twoCode one2 y) -> Id (twoCode one2 y) c d)"
        " (fun c d => emptyElim (fun e => Id Empty c d) c) (fun c d => refl c) b) a")
    f.d("def", "twoSet", "isTrunc0 2 Two",
        "fun x y => retractTrunc 1 (Id Two x y) (twoCode x y)"
        " (twoEncode x y) (twoDecode x y) (twoDecodeEncode x y)"
        " (allPathsTrunc (twoCode x y) (twoCodeAllPaths x y))",
        ref="two-is-a-set")
    f.d("def", "twoDistinct",
        "Id Two one2 zero2 -> Empty",
        "fun p => twoEncode one2 zero2 p",
        ref="the-two-elements-are-distinct")
    return f


def emit_prelude() -> list[HottFile]:
    return [
        path_algebra(),
        pair_paths(),
        truncation(),
        equivalence_core(),
        funext(),
        univalence(),
        two_type(),
    ]
