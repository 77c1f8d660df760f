CREATE TABLE region (id INT PRIMARY KEY, name TEXT, coastal BOOL);
CREATE TABLE shop (id INT PRIMARY KEY, regionid INT REFERENCES region,
                   kind TEXT UPDATABLE);
CREATE TABLE sale (id INT PRIMARY KEY, shopid INT REFERENCES shop,
                   qty INT UPDATABLE, amount FLOAT UPDATABLE);
INSERT INTO region VALUES (1, 'north', TRUE);
INSERT INTO region VALUES (2, 'south', FALSE);
INSERT INTO shop VALUES (1, 1, 'grocery');
INSERT INTO shop VALUES (2, 2, 'kiosk');
INSERT INTO sale VALUES (1, 1, 2, 10.5);
INSERT INTO sale VALUES (2, 2, 1, 30.25);
CREATE VIEW region_revenue AS
  SELECT name, coastal, SUM(amount) AS revenue, SUM(qty) AS units,
         COUNT(*) AS sales
  FROM sale, shop, region
  WHERE sale.shopid = shop.id AND shop.regionid = region.id
  GROUP BY name, coastal;
CREATE VIEW kind_top AS
  SELECT kind, MAX(amount) AS top
  FROM sale, shop
  WHERE sale.shopid = shop.id
  GROUP BY kind;
