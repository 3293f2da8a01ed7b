(* The serve result-cache key as it was computed before each request's
   formula was parsed once: the key parsed the formula text again and
   used its closure digest, whose entries each rendered their whole
   subformula text, so the key cost time quadratic in the formula. Kept
   as the oracle for the key that replaced it: two requests have equal
   keys here exactly when the server gives them one cache slot. *)

open Pak_logic
module Budget = Pak_guard.Budget

type op =
  | Eval
  | Belief of { agent : int; run : int; time : int; samples : int option; seed : int option }

let render_entry buf (e : Closure.entry) =
  Buffer.add_string buf (string_of_int e.bit);
  Buffer.add_char buf '|';
  Buffer.add_string buf (Formula.to_string e.formula);
  Buffer.add_char buf '|';
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int c))
    e.children;
  Buffer.add_char buf '\n'

let closure_digest c =
  let buf = Buffer.create 256 in
  Array.iter (render_entry buf) (Closure.entries c);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let cache_key ~system ~op ~formula ~(limits : Budget.limits) =
  let b = Buffer.create 96 in
  Buffer.add_string b (Digest.to_hex (Digest.string system));
  Buffer.add_char b '|';
  (match op with
   | Eval -> Buffer.add_string b "eval"
   | Belief { agent; run; time; samples; seed } ->
     Printf.bprintf b "belief:%d:%d:%d:%d:%d" agent run time
       (Option.value samples ~default:(-1))
       (Option.value seed ~default:(-1)));
  Buffer.add_char b '|';
  (match Parser.parse_result formula with
   | Ok f -> Buffer.add_string b (closure_digest (Closure.of_formula f))
   | Error _ -> Buffer.add_string b formula);
  Buffer.add_char b '|';
  List.iteri
    (fun i (c : Budget.cap) ->
      if i > 0 then Buffer.add_char b ',';
      match c.get limits with
      | None -> Buffer.add_char b '-'
      | Some v -> Buffer.add_string b (string_of_int v))
    Budget.caps;
  Buffer.contents b
