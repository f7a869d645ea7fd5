(* A digest of one experiment's printed results, blind to wall-clock
   readings: the "[... completed in N s CPU]" trailer is dropped, and in
   a table whose last column is "seconds" (abl-solver) that column is
   cut from the header and every row.  Equal digests mean the tables
   are bitwise identical. *)

let completed_line line =
  String.starts_with ~prefix:"[" line && Check.contains ~sub:" completed in " line

(* Cut everything from the start of the last word on. *)
let drop_last_word line =
  let n = ref (String.length line) in
  while !n > 0 && line.[!n - 1] = ' ' do decr n done;
  match String.rindex_from_opt line (max 0 (!n - 1)) ' ' with
  | Some i when !n > 0 -> String.sub line 0 i
  | _ -> ""

let last_word line =
  match List.rev (Check.tokens line) with w :: _ -> Some w | [] -> None

let normalize output =
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest when completed_line line -> go acc rest
    | line :: rest when Check.is_header line && last_word line = Some "seconds" ->
        let rows = Check.body rest in
        let n = List.length rows in
        let rest = List.filteri (fun i _ -> i >= n) rest in
        go (List.rev_append (List.map drop_last_word (line :: rows)) acc) rest
    | line :: rest -> go (line :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' output))

let digest output = Digest.to_hex (Digest.string (normalize output))
