(* QCheck arbitraries whose shrinkers stay in range.

   [QCheck.int_range lo hi] shrinks towards 0 whatever [lo] is, so a
   failing case shrinks to values below [lo], alone or inside a list or
   a tuple: a property that needs [lo >= 1] then reports the exception
   the out-of-range value raises (a size of 0, a channel count of 0),
   not a counterexample. This one draws exactly what [QCheck.int_range lo hi]
   draws, shrinks towards [lo] and prints the value drawn. *)
let int_range lo hi =
  QCheck.set_print string_of_int
    (QCheck.map ~rev:(fun x -> x - lo) (fun x -> x + lo)
       (QCheck.int_range 0 (hi - lo)))
