(* Seeded edit scripts that keep a document's size stable: a cycle of
   RETEXT of a random text-bearing node, INSERT of a copy of a random
   leaf element next to it (an existing path, so the tag inventory and
   schema stay put), and DELETE of that copy.  Targets are chosen on an
   in-process storage that the caller keeps equal to the system under
   test, so positions stay valid across relabelings. *)

type edit =
  | Retext of { start : int; data : string }
  | Insert of { parent : int; pos : int; xml : string }
  | Delete of { start : int }

type t = {
  rng : Blas_datagen.Rng.t;
  mutable phase : int;
  mutable pending : (int * int) option;  (** parent's order index, pos *)
  mutable inserted : int option;  (** start of the copy to delete *)
  mutable count : int;
}

let create ~seed =
  { rng = Blas_datagen.Rng.create ~seed; phase = 0; pending = None;
    inserted = None; count = 0 }

let nodes storage = (Blas.Storage.doc storage).Blas_xpath.Doc.by_start

let to_proto : edit -> Blas_server.Proto.edit = function
  | Retext { start; data } -> Blas_server.Proto.Retext { start; data = Some data }
  | Insert { parent; pos; xml } -> Blas_server.Proto.Insert { parent; pos; xml }
  | Delete { start } -> Blas_server.Proto.Delete { start }

(* Apply exactly what a server applies for the wire form of [e]. *)
let apply storage = function
  | Retext { start; data } -> Blas.Update.replace_text storage ~start (Some data)
  | Insert { parent; pos; xml } ->
    Blas.Update.insert_subtree storage ~parent ~pos (Blas_xml.Dom.parse xml)
  | Delete { start } -> Blas.Update.delete_subtree storage ~start

(* Attribute nodes are labeled like elements but cannot be inserted as
   XML elements. *)
let is_element_name tag =
  tag <> "" && match tag.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false

let rec pick_index t arr ok =
  let i = Blas_datagen.Rng.int t.rng (Array.length arr) in
  if ok arr.(i) then i else pick_index t arr ok

(* The next edit for [storage]'s current state. *)
let choose t storage =
  let arr = nodes storage in
  match t.phase with
  | 0 ->
    let i = pick_index t arr (fun n -> n.Blas_xpath.Doc.data <> None) in
    Retext
      { start = arr.(i).Blas_xpath.Doc.start;
        data = Printf.sprintf "bench edit %d" t.count }
  | 1 ->
    let i =
      pick_index t arr (fun n ->
          n.Blas_xpath.Doc.level >= 3 && n.Blas_xpath.Doc.children = []
          && is_element_name n.Blas_xpath.Doc.tag)
    in
    let leaf = arr.(i) in
    (* The leaf's parent is the nearest earlier node enclosing it. *)
    let rec parent j =
      let p = arr.(j) in
      if p.Blas_xpath.Doc.start < leaf.start && p.fin > leaf.fin
         && p.level = leaf.level - 1
      then j
      else parent (j - 1)
    in
    let pj = parent (i - 1) in
    let p = arr.(pj) in
    let nkids = List.length p.Blas_xpath.Doc.children in
    let pos = Blas_datagen.Rng.int t.rng (nkids + 1) in
    t.pending <- Some (pj, pos);
    Insert
      { parent = p.start; pos;
        xml = Blas_xml.Printer.compact (Blas_xpath.Doc.subtree leaf) }
  | _ -> (
    match t.inserted with
    | Some start -> Delete { start }
    | None -> invalid_arg "Edits.choose: no inserted copy to delete")

(* Advance after [e] was applied to [storage]. *)
let applied t storage e =
  (match e with
  | Insert _ -> (
    match t.pending with
    | Some (pj, pos) ->
      (* Insertion lands after the parent in document order, so the
         parent keeps its order index across any relabeling. *)
      let p = (nodes storage).(pj) in
      t.inserted <- Some (List.nth p.Blas_xpath.Doc.children pos).start
    | None -> ())
  | Delete _ -> t.inserted <- None
  | Retext _ -> ());
  t.phase <- (t.phase + 1) mod 3;
  t.count <- t.count + 1
