"""shoptalk: grounded, opinionated sales-conversation generation from
product metadata and reviews.

Pipeline: ingest a catalog and reviews (corpus), extract feature/opinion
spans (annotate), index them (opinion_index) -- the last two derived by
World.cover (world), each review at most once per command -- run the
feature/value search dialog (search_dialog), instantiate negotiation
dialog pairs (negotiation), compose conversations from templates
(assembly), and serialize/validate datasets (dataset_io).
"""

__version__ = "0.1.0"
