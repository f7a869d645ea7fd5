(* Output checks that do not depend on the RNG stream.  Each function
   returns the list of problems found; an empty list means the output
   passed.

   The text checks read the printed tables the way a reader would:
   - no value anywhere prints as NaN;
   - every cell of a "loss rate" table and every cell under a column
     whose header names a loss is a finite number in [0, 1];
   - every printed interval [a, b] has a <= b, and lies in [0, 1] when
     its line is about a loss;
   - in a table with "lower" and "upper" columns, lower <= upper.

   Tables are right-aligned, so a cell under a named column is the run
   of non-blank characters that ends where the header name ends. *)

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let is_nan_word w =
  let w =
    String.lowercase_ascii w
    |> String.map (fun c -> if String.contains "[](),;:=" c then ' ' else c)
  in
  List.exists
    (fun t -> t = "nan" || t = "-nan" || t = "+nan")
    (tokens w)

(* A table body ends at a blank line, a parenthesised note, a bracketed
   trailer or a prose line (rows never contain a colon). *)
let ends_body line =
  let t = String.trim line in
  t = "" || t.[0] = '(' || t.[0] = '[' || String.contains t ':'

let rec body = function
  | [] -> []
  | l :: rest -> if ends_body l then [] else l :: body rest

(* (name, exclusive end column) of every header word. *)
let header_columns line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if line.[i] = ' ' then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && line.[!j] <> ' ' do incr j done;
      go !j ((String.sub line i (!j - i), !j) :: acc)
  in
  go 0 []

(* The cell of [row] that ends at column [stop], if one does. *)
let cell_ending row stop =
  let n = String.length row in
  if stop > n || stop = 0 || row.[stop - 1] = ' ' || (stop < n && row.[stop] <> ' ')
  then None
  else begin
    let i = ref (stop - 1) in
    while !i > 0 && row.[!i - 1] <> ' ' do decr i done;
    Some (String.sub row !i (stop - !i))
  end

let loss_problem what v =
  if Float.is_nan v || not (Float.is_finite v) then
    Some (Printf.sprintf "%s is not finite (%g)" what v)
  else if v < 0.0 || v > 1.0 then
    Some (Printf.sprintf "%s %g lies outside [0, 1]" what v)
  else None

let number s = float_of_string_opt s

let check_loss_cell acc what s =
  match number s with
  | None -> acc
  | Some v -> ( match loss_problem what v with Some p -> p :: acc | None -> acc)

(* "loss rate (...)" titles head a surface or multi-series: the next
   line holds the column axis, then every cell after the row label is a
   loss.  A header that itself ends in "(loss rate per ...)" heads its
   rows directly. *)
let loss_rate_title line =
  let t = String.trim line in
  String.starts_with ~prefix:"loss rate (" t || String.starts_with ~prefix:"simulated loss rate (" t

let all_cells_losses acc rows =
  List.fold_left
    (fun acc row ->
      match tokens row with
      | [] -> acc
      | _label :: cells ->
          List.fold_left (fun acc c -> check_loss_cell acc "loss cell" c) acc cells)
    acc rows

let is_header line =
  let t = String.trim line in
  t <> "" && t.[0] <> '(' && t.[0] <> '['
  && not (String.contains t ':' || String.contains t '=')

let named_column_losses acc header rows =
  List.fold_left
    (fun acc (name, stop) ->
      if not (contains ~sub:"loss" name) then acc
      else
        List.fold_left
          (fun acc row ->
            match cell_ending row stop with
            | None -> acc
            | Some c -> check_loss_cell acc (Printf.sprintf "%S cell" name) c)
          acc rows)
    acc (header_columns header)

let lower_upper acc header rows =
  let cols = header_columns header in
  match (List.assoc_opt "lower" cols, List.assoc_opt "upper" cols) with
  | Some lo_stop, Some hi_stop ->
      List.fold_left
        (fun acc row ->
          match (cell_ending row lo_stop, cell_ending row hi_stop) with
          | Some lo, Some hi -> (
              match (number lo, number hi) with
              | Some lo, Some hi when not (lo <= hi) ->
                  Printf.sprintf "lower %g > upper %g" lo hi :: acc
              | _ -> acc)
          | _ -> acc)
        acc rows
  | _ -> acc

(* Every "[a, b]" on the line whose ends parse as numbers. *)
let intervals line =
  let n = String.length line in
  let rec go i acc =
    match String.index_from_opt line i '[' with
    | None -> List.rev acc
    | Some o -> (
        match String.index_from_opt line o ']' with
        | None -> List.rev acc
        | Some c -> (
            let inner = String.sub line (o + 1) (c - o - 1) in
            let next = if c + 1 < n then c + 1 else n in
            match String.split_on_char ',' inner with
            | [ a; b ] -> (
                match (number (String.trim a), number (String.trim b)) with
                | Some a, Some b -> go next ((a, b) :: acc)
                | _ -> go next acc)
            | _ -> go next acc))
  in
  if n = 0 then [] else go 0 []

let interval_problems acc line =
  let about_loss = contains ~sub:"loss" line in
  List.fold_left
    (fun acc (a, b) ->
      let acc =
        if a <= b then acc
        else Printf.sprintf "interval [%g, %g] has lower > upper" a b :: acc
      in
      if about_loss then
        List.fold_left
          (fun acc v ->
            match loss_problem "loss bound" v with Some p -> p :: acc | None -> acc)
          acc [ a; b ]
      else acc)
    acc (intervals line)

let text output =
  let lines = String.split_on_char '\n' output in
  let rec scan acc = function
    | [] -> acc
    | line :: rest ->
        let acc =
          if List.exists is_nan_word (tokens line) then
            Printf.sprintf "NaN printed: %S" (String.trim line) :: acc
          else acc
        in
        let acc = interval_problems acc line in
        let acc =
          if loss_rate_title line then
            match rest with
            | _axis :: rows -> all_cells_losses acc (body rows)
            | [] -> acc
          else if contains ~sub:"(loss rate per" line then
            all_cells_losses acc (body rest)
          else if is_header line then
            let rows = body rest in
            lower_upper (named_column_losses acc line rows) line rows
          else acc
        in
        scan acc rest
  in
  List.rev (scan [] lines)

(* Certified solver cells: finite bounds in [0, 1] with lower <= upper,
   and a gap at or below the solver's target unless the cell ran out of
   budget (not converged).  The gap test is the solver's own stopping
   rule.  A cell whose upper bound is below the negligible-loss floor is
   a certified zero: its claim is "loss < floor", and its bounds sit at
   rounding level (a full-size fig4 cell reads [3.7e-19, 4.0e-20]), so
   only a lower bound at or above the floor contradicts it. *)
let cells ~(params : Lrd_core.Solver.params) (rs : Lrd_core.Solver.result list) =
  let floor = params.negligible_loss in
  List.concat
    (List.mapi
       (fun i (r : Lrd_core.Solver.result) ->
         let lo = r.lower_bound and hi = r.upper_bound in
         let fail fmt = Printf.ksprintf (fun s -> [ Printf.sprintf "cell %d: %s" i s ]) fmt in
         if not (Float.is_finite lo && Float.is_finite hi) then
           fail "bounds [%g, %g] are not finite" lo hi
         else if hi < floor then
           if lo >= floor || hi <= -.floor then
             fail "bounds [%g, %g] contradict a certified zero" lo hi
           else []
         else if lo < 0.0 || hi > 1.0 then fail "bounds [%g, %g] leave [0, 1]" lo hi
         else if lo > hi then fail "lower %g > upper %g" lo hi
         else if
           r.converged
           && not
                (hi < params.negligible_loss
                || hi -. lo <= params.tolerance *. ((hi +. lo) /. 2.0))
         then fail "gap %g above the %g target" ((hi -. lo) /. ((hi +. lo) /. 2.0)) params.tolerance
         else [])
       rs)
