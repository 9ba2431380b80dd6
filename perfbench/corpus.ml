(* The seeded inputs: the paper's three data sets and query sets.

   Figure 10's nine hand-written queries (QXY: X = Shakespeare, Protein,
   Auction; Y = 1 suffix path, 2 descendant axis, 3 tree query) and the
   XMark skeletons of Figure 15 (tree-pattern subset, Q3 omitted as in
   the paper). *)

let shakespeare_queries =
  [
    ("QS1", "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE");
    ("QS2", "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR");
    ("QS3", "/PLAYS/PLAY/ACT/SCENE[TITLE = \"SCENE III. A public place.\"]//LINE");
  ]

let protein_queries =
  [
    ("QP1", "/ProteinDatabase/ProteinEntry/protein/name");
    ("QP2", "/ProteinDatabase/ProteinEntry//authors/author = \"Daniel, M.\"");
    ( "QP3",
      "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and \
       year]]/protein/name" );
  ]

let auction_queries =
  [
    ("QA1", "//category/description/parlist/listitem");
    ("QA2", "/site/regions//item/description");
    ("QA3", "/site/regions/asia/item[shipping]/description");
  ]

let xmark_queries =
  [
    ("Q1", "/site/people/person/name");
    ("Q2", "/site/open_auctions/open_auction/bidder/increase");
    ("Q4", "/site/open_auctions/open_auction[bidder/personref]/reserve");
    ("Q5", "/site/closed_auctions/closed_auction/price");
    ("Q6", "/site/regions//item");
  ]

type dataset = {
  ds_name : string;
  ds_tree : Blas_xml.Types.tree;
  ds_queries : (string * string) list;
  ds_xml_bytes : int;
}

let dataset name tree queries =
  {
    ds_name = name;
    ds_tree = tree;
    ds_queries = queries;
    ds_xml_bytes = Blas_xml.Printer.byte_size tree;
  }

(* The documents are fixed, like the paper's data sets: every run
   generates them from these generator seeds.  The workload seed drives
   what varies between runs of one workload — query order, the client
   operation mix and the edit scripts — so a run-to-run spread measures
   the system, not a change of corpus size. *)
let shakespeare ~plays =
  dataset "shakespeare"
    (Blas_datagen.Shakespeare.generate ~seed:1 ~plays ())
    shakespeare_queries

let protein ~entries =
  dataset "protein" (Blas_datagen.Protein.generate ~seed:2 ~entries ()) protein_queries

let auction ?(seed = 3) ~scale () =
  dataset "auction"
    (Blas_datagen.Auction.generate ~seed ~scale ())
    (auction_queries @ xmark_queries)

(* Workload-seed derived sub-seeds, one per random stream. *)
let sub_seed seed k = (seed * 7919) + k

let replicate k ds =
  let tree = Blas_xml.Replicate.by_factor k ds.ds_tree in
  { ds with ds_tree = tree; ds_xml_bytes = Blas_xml.Printer.byte_size tree }

let xml_bytes dss = List.fold_left (fun acc d -> acc + d.ds_xml_bytes) 0 dss
